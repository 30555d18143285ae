//! The lockstep wall: the compiled bytecode machine ([`BcVm`], the only
//! engine any executor runs) against the tree-walk reference ([`Vm`]),
//! compared step by step.
//!
//! A small serial round-robin driver runs both machines over the same
//! program, each with its own [`PlainGlobals`]. Every step of the
//! bytecode machine is matched by as many tree-walk steps as retire the
//! same cost (a fused superinstruction stands for several IR
//! instructions), and after each step the two machines must agree
//! exactly: the same retired cost, the same pending special (intrinsic,
//! `args`, `str_args`), the same finished value or the same dynamic
//! error, and the same region `CallEvent`s drained.
//!
//! One difference in *when* a tick retires is modeled exactly: the
//! bytecode folds a block's fall-through jump into the block's last op,
//! and when that op is a program-function call the jump's tick retires
//! with the call, before the callee runs, while the tree-walk retires it
//! after the callee returns. The wall carries that tick as owed and
//! requires the reference to retire exactly it, and nothing else, right
//! after the matching return.
//!
//! The driver resolves each special once and hands the same value to
//! both machines: world calls go through the workload registry, queues
//! are unbounded, and a pop on an empty queue or an acquire of a held
//! lock (or transaction slot) calls `retry_special_later` on both and
//! yields to the next worker. Every third special is also retried once
//! before it is resolved, which exercises the retry contract. Fault
//! plans and world modes change only the value that resolves a special,
//! so this wall covers them for every executor.

use commset::{ParallelPlan, Scheme};
use commset_interp::bytecode::{Op, OPCODE_NAMES};
use commset_interp::globals::PlainGlobals;
use commset_interp::{BcModule, BcVm, CallEvent, ExecError, SpecialOp, StepOutcome, Vm};
use commset_ir::Module;
use commset_runtime::{Registry, Value, World};
use commset_sim::CostModel;
use commset_workloads::{all, Workload};
use std::collections::VecDeque;

/// The watch prefix the executors use for commutative-region events.
const REGION_PREFIX: &str = "__commset_region_";

/// Aligned steps a worker runs before the driver moves to the next one.
const QUANTUM: usize = 16;

/// Aligned steps per bytecode opcode kind.
type Kinds = [u64; OPCODE_NAMES.len()];

/// One program entry run on both engines.
struct Pair<'m> {
    tree: Vm<'m>,
    byte: BcVm<'m>,
    bc: &'m BcModule,
    func: String,
    /// Ticks the bytecode retired with each active program-function call
    /// that the tree-walk retires after its return (innermost last).
    owed: Vec<u64>,
    /// The pending special was already deferred once by the every-third
    /// rule; it resolves (or blocks) the next time it surfaces.
    deferred: bool,
    done: bool,
}

impl<'m> Pair<'m> {
    fn new(module: &'m Module, bc: &'m BcModule, func: &str, args: &[Value]) -> Self {
        let mut tree = Vm::for_name(module, func, args).expect("tree-walk entry exists");
        let mut byte = BcVm::for_name(module, bc, func, args).expect("bytecode entry exists");
        tree.watch_calls_matching(REGION_PREFIX);
        byte.watch_calls_matching(REGION_PREFIX);
        Pair {
            tree,
            byte,
            bc,
            func: func.to_string(),
            owed: Vec::new(),
            deferred: false,
            done: false,
        }
    }

    /// Steps the bytecode machine once and the tree-walk reference until
    /// it has retired the same cost, then asserts both reached the same
    /// outcome and drained the same region events.
    fn step(
        &mut self,
        tg: &mut PlainGlobals,
        bg: &mut PlainGlobals,
        at: &str,
        kinds: &mut Kinds,
    ) -> Result<StepOutcome, ExecError> {
        let (f, pc) = self.byte.site().expect("stepping a live machine");
        let bf = &self.bc.funcs[f as usize];
        let weight = u64::from(bf.weights[pc as usize]);
        let op = &bf.ops[pc as usize];
        kinds[op.kind()] += 1;
        let (is_call, is_ret) = (
            matches!(op, Op::CallFunc { .. }),
            matches!(op, Op::Ret { .. }),
        );
        let byte = self.byte.step(bg);
        let mut retired = 0u64;
        let tree = match &byte {
            // One tree-walk step enters the callee; the rest of the
            // call's weight is the folded fall-through tick, owed until
            // the callee returns.
            Ok(StepOutcome::Ran { cost }) if is_call => match self.tree.step(tg) {
                Ok(StepOutcome::Ran { cost: c }) if c <= *cost => {
                    retired = c;
                    self.owed.push(cost - c);
                    Ok(StepOutcome::Ran { cost: *cost })
                }
                other => other,
            },
            _ => loop {
                let out = self.tree.step(tg);
                match (&out, &byte) {
                    (Ok(StepOutcome::Ran { cost }), Ok(StepOutcome::Ran { cost: want })) => {
                        retired += cost;
                        if retired >= *want {
                            break Ok(StepOutcome::Ran { cost: retired });
                        }
                    }
                    // A fused op that fails part-way: the reference may
                    // retire the op's leading instructions before it hits
                    // the error.
                    (Ok(StepOutcome::Ran { cost }), Err(_)) if retired + cost < weight => {
                        retired += cost;
                    }
                    _ => break out,
                }
            },
        };
        assert_eq!(
            tree, byte,
            "{at}: `{}` diverged after the tree-walk retired {retired} of a weight-{weight} op",
            self.func
        );
        let tree_events: Vec<CallEvent> = self.tree.drain_call_events();
        assert_eq!(
            tree_events,
            self.byte.drain_call_events(),
            "{at}: `{}` region events diverged",
            self.func
        );
        if is_ret && matches!(byte, Ok(StepOutcome::Ran { .. })) {
            let owed = self.owed.pop().expect("every return matches a call");
            let mut paid = 0u64;
            while paid < owed {
                match self.tree.step(tg) {
                    Ok(StepOutcome::Ran { cost }) => paid += cost,
                    other => panic!("{at}: `{}` owed a tick, got {other:?}", self.func),
                }
            }
            assert_eq!(
                paid, owed,
                "{at}: `{}` paid the wrong tick count",
                self.func
            );
        }
        byte
    }

    fn resolve(&mut self, value: Value) {
        self.tree.resolve_special(value);
        self.byte.resolve_special(value);
        self.deferred = false;
    }

    fn retry_later(&mut self) {
        self.tree.retry_special_later();
        self.byte.retry_special_later();
    }
}

/// Shared state of one parallel section.
struct Section {
    queue_ids: Vec<i64>,
    queues: Vec<VecDeque<u64>>,
    /// Holder of each lock, indexed by rank.
    locks: Vec<Option<usize>>,
    /// Holder of the transaction slot: transactions run under one
    /// pessimistic lock, as on the real-thread executor.
    tx: Option<usize>,
}

impl Section {
    fn queue(&self, args: &[Value]) -> usize {
        let id = args[0].as_int();
        self.queue_ids
            .iter()
            .position(|&q| q == id)
            .unwrap_or_else(|| panic!("unknown queue {id}"))
    }
}

/// The serial round-robin driver over one module.
struct Lockstep<'m> {
    module: &'m Module,
    bc: &'m BcModule,
    registry: &'m Registry,
    plans: &'m [ParallelPlan],
    ops: Vec<SpecialOp>,
    world: World,
    tg: PlainGlobals,
    bg: PlainGlobals,
    at: String,
    specials: u64,
    retries: u64,
    kinds: Kinds,
}

/// What a worker's turn ended with.
enum Turn {
    Progress,
    Blocked,
}

impl<'m> Lockstep<'m> {
    fn new(
        module: &'m Module,
        bc: &'m BcModule,
        registry: &'m Registry,
        plans: &'m [ParallelPlan],
        world: World,
        at: String,
    ) -> Self {
        Lockstep {
            module,
            bc,
            registry,
            plans,
            ops: SpecialOp::decode_table(&module.intrinsics),
            world,
            tg: PlainGlobals::new(module),
            bg: PlainGlobals::new(module),
            at,
            specials: 0,
            retries: 0,
            kinds: [0; OPCODE_NAMES.len()],
        }
    }

    /// The every-third rule: defers a fresh special once, on both VMs.
    fn defer(&mut self, pair: &mut Pair<'_>) -> bool {
        if pair.deferred {
            return false;
        }
        self.specials += 1;
        if !self.specials.is_multiple_of(3) {
            return false;
        }
        pair.retry_later();
        pair.deferred = true;
        self.retries += 1;
        true
    }

    /// Resolves a world call once, through the registry.
    fn call_world(&mut self, op: usize, args: &[Value]) -> Value {
        let name = self.module.intrinsics.name(op);
        self.registry.call(name, &mut self.world, args).value
    }

    /// Runs `main` to completion; returns its value.
    fn run(&mut self) -> Result<Option<Value>, ExecError> {
        let (module, bc) = (self.module, self.bc);
        let mut main = Pair::new(module, bc, "main", &[]);
        loop {
            let at = self.at.clone();
            match main.step(&mut self.tg, &mut self.bg, &at, &mut self.kinds)? {
                StepOutcome::Ran { .. } => {}
                StepOutcome::Finished(v) => return Ok(v),
                StepOutcome::Special(p) => {
                    if self.defer(&mut main) {
                        continue;
                    }
                    let id = p.intrinsic.0 as usize;
                    let value = match self.ops[id] {
                        SpecialOp::World => self.call_world(id, &p.args),
                        SpecialOp::ParInvoke => {
                            let section = p.args[0].as_int();
                            let plans = self.plans;
                            let plan = plans
                                .iter()
                                .find(|pl| pl.section == section)
                                .unwrap_or_else(|| panic!("{at}: no plan for section {section}"));
                            self.run_section(plan)?;
                            Value::Int(0)
                        }
                        op => panic!("{at}: runtime special {op:?} outside a section"),
                    };
                    main.resolve(value);
                }
            }
        }
    }

    fn run_section(&mut self, plan: &ParallelPlan) -> Result<(), ExecError> {
        let (module, bc) = (self.module, self.bc);
        let mut workers: Vec<Pair<'_>> = plan
            .workers
            .iter()
            .map(|w| Pair::new(module, bc, &w.func, &[Value::Int(w.tid), Value::Int(w.nt)]))
            .collect();
        let mut sec = Section {
            queue_ids: plan.queues.iter().map(|q| q.id).collect(),
            queues: plan.queues.iter().map(|_| VecDeque::new()).collect(),
            locks: vec![None; plan.locks.len()],
            tx: None,
        };
        while workers.iter().any(|w| !w.done) {
            let mut progress = false;
            for (i, w) in workers.iter_mut().enumerate() {
                if !w.done && matches!(self.turn(w, i, &mut sec)?, Turn::Progress) {
                    progress = true;
                }
            }
            assert!(
                progress,
                "{}: section {} deadlocked under the round-robin driver",
                self.at, plan.section
            );
        }
        Ok(())
    }

    /// Runs worker `i` for up to [`QUANTUM`] aligned steps, until it
    /// finishes, blocks or is deferred.
    fn turn(&mut self, w: &mut Pair<'_>, i: usize, sec: &mut Section) -> Result<Turn, ExecError> {
        let at = self.at.clone();
        let mut turn = Turn::Blocked;
        for _ in 0..QUANTUM {
            let p = match w.step(&mut self.tg, &mut self.bg, &at, &mut self.kinds)? {
                StepOutcome::Ran { .. } => {
                    turn = Turn::Progress;
                    continue;
                }
                StepOutcome::Finished(_) => {
                    w.done = true;
                    return Ok(Turn::Progress);
                }
                StepOutcome::Special(p) => p,
            };
            if self.defer(w) {
                return Ok(Turn::Progress);
            }
            let id = p.intrinsic.0 as usize;
            let free = |holder: Option<usize>| holder.is_none_or(|h| h == i);
            let value = match self.ops[id] {
                SpecialOp::LockAcquire => {
                    let l = p.args[0].as_int() as usize;
                    if !free(sec.locks[l]) {
                        w.retry_later();
                        return Ok(turn);
                    }
                    sec.locks[l] = Some(i);
                    Value::Int(0)
                }
                SpecialOp::LockRelease => {
                    sec.locks[p.args[0].as_int() as usize] = None;
                    Value::Int(0)
                }
                SpecialOp::QueuePush => {
                    let q = sec.queue(&p.args);
                    sec.queues[q].push_back(p.args[1].to_bits());
                    Value::Int(0)
                }
                SpecialOp::QueuePop { float } => {
                    let q = sec.queue(&p.args);
                    match sec.queues[q].pop_front() {
                        Some(bits) => Value::from_bits(bits, float),
                        None => {
                            w.retry_later();
                            return Ok(turn);
                        }
                    }
                }
                SpecialOp::TxBegin => {
                    if !free(sec.tx) {
                        w.retry_later();
                        return Ok(turn);
                    }
                    sec.tx = Some(i);
                    Value::Int(0)
                }
                SpecialOp::TxCommit => {
                    sec.tx = None;
                    Value::Int(0)
                }
                SpecialOp::World => self.call_world(id, &p.args),
                SpecialOp::ParInvoke => panic!("{at}: nested parallel section"),
            };
            w.resolve(value);
            turn = Turn::Progress;
        }
        Ok(turn)
    }
}

/// Source of a scheme series: the annotated variant, or the
/// pragma-stripped baseline for non-COMMSET series.
fn source_of(w: &Workload, spec: &commset_workloads::SchemeSpec) -> String {
    if spec.commset {
        w.variants[spec.variant].clone()
    } else {
        w.plain_source()
    }
}

/// Runs `module` in lockstep from a fresh world and validates the final
/// world against the sequential oracle; returns the driver's
/// (specials, retries) counts.
fn lockstep_validated(
    w: &Workload,
    module: &Module,
    plans: &[ParallelPlan],
    oracle: &World,
    at: String,
) -> (u64, u64) {
    let bc = BcModule::compile(module);
    let mut run = Lockstep::new(module, &bc, &w.registry, plans, (w.make_world)(), at);
    run.run()
        .unwrap_or_else(|e| panic!("{}: dynamic error on both engines: {e}", run.at));
    (w.validate)(oracle, &run.world)
        .unwrap_or_else(|e| panic!("{}: final world fails the oracle: {e}", run.at));
    (run.specials, run.retries)
}

/// Every workload's sequential module, in lockstep.
#[test]
fn engines_agree_step_by_step_on_every_sequential_module() {
    let cm = CostModel::default();
    let mut retries = 0;
    for w in all() {
        let (_, oracle) = w.run_sequential(&cm);
        let compiler = w.compiler();
        let analysis = compiler
            .analyze(&w.plain_source())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let module = compiler
            .compile_sequential(&analysis)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let (specials, r) =
            lockstep_validated(&w, &module, &[], &oracle, format!("{} sequential", w.name));
        assert!(specials > 0, "{}: the driver resolved no special", w.name);
        retries += r;
    }
    assert!(retries > 0, "the retry contract was never exercised");
}

/// Every workload × applicable scheme × {2, 4, 8} threads: the
/// transformed module (main plus every section worker), in lockstep.
#[test]
fn engines_agree_on_every_workload_scheme_and_thread_count() {
    let cm = CostModel::default();
    let mut cells = 0u32;
    for w in all() {
        let (_, oracle) = w.run_sequential(&cm);
        let compiler = w.compiler();
        for spec in &w.schemes {
            if spec.scheme == Scheme::Sequential {
                continue;
            }
            let analysis = compiler
                .analyze(&source_of(&w, spec))
                .unwrap_or_else(|e| panic!("{} {}: {e}", w.name, spec.label));
            for threads in [2, 4, 8] {
                let Ok((module, plan)) =
                    compiler.compile(&analysis, spec.scheme, threads, spec.sync)
                else {
                    continue; // inapplicable at this width
                };
                let at = format!("{} {} x{threads}", w.name, spec.label);
                lockstep_validated(&w, &module, std::slice::from_ref(&plan), &oracle, at);
                cells += 1;
            }
        }
    }
    // 86 cells apply today; fewer means a scheme stopped applying.
    assert!(cells >= 86, "matrix too small: only {cells} cells");
}

/// Compute kernels that step every bytecode opcode kind, fused ones
/// included, so a wrong retire weight on any op cannot hide behind the
/// workloads' intrinsic-heavy drivers.
#[test]
fn engines_agree_step_by_step_on_every_opcode_kind() {
    const KERNELS: [&str; 3] = [
        // Globals, arrays and the read-modify-write fusion, a register
        // branch, a program call, casts, unary ops and an intrinsic.
        "extern int ask(int x); int h[8]; int g = 3; \
         int sq(int x) { return x * x; } \
         int main() { int s = 0; float f = 0.5; int j = 5; \
           for (int i = 0; i < 16; i = i + 1) { \
             h[i % 8] += i; h[j] += 2; j = (j + 3) % 8; \
             int c = i % 3 == 0; \
             if (c) { s = s + sq(i); } else { s = s - 1; } \
             f = f * 1.5; g = g + ask(i); } \
           return s + int(f) + -h[2] + g + h[j]; }",
        // Break/continue, short-circuit logic and a fall-through into a
        // call at the end of a block.
        "extern int ask(int x); int seen = 0; \
         int mark(int v) { seen = seen + v; return v; } \
         int main() { int s = 0; int i = 0; \
           while (1) { i = i + 1; if (i > 12) break; if (i % 3 != 0) continue; \
             if (i > 2 && mark(i) > 0) { s += i; } mark(1); } \
           return s + seen + ask(s); }",
        // Local arrays and float arithmetic.
        "int main() { float acc = 0.0; int a[6]; \
           for (int i = 0; i < 6; i = i + 1) { a[i] = i * i; acc = acc + float(a[i]) / 2.0; } \
           int t = 0; for (int k = 5; k >= 0; k = k - 1) { t = t * 2 + a[k] % 7; } \
           return t + int(acc); }",
    ];
    let mut table = commset_ir::IntrinsicTable::new();
    table.register(
        "ask",
        vec![commset_lang::ast::Type::Int],
        commset_lang::ast::Type::Int,
        &[],
        &["Q"],
        10,
    );
    let mut registry = Registry::new();
    registry.register("ask", |_, args| {
        commset_runtime::IntrinsicOutcome::value(args[0].as_int() + 1)
    });
    let mut kinds: Kinds = [0; OPCODE_NAMES.len()];
    for src in KERNELS {
        let unit = commset_lang::compile_unit(src).expect("kernel compiles");
        let module = commset_ir::lower_program(&unit.program, table.clone()).expect("lowers");
        let bc = BcModule::compile(&module);
        let mut run = Lockstep::new(&module, &bc, &registry, &[], World::new(), src.into());
        run.run().unwrap_or_else(|e| panic!("{src}: {e}"));
        for (k, n) in kinds.iter_mut().zip(run.kinds) {
            *k += n;
        }
    }
    for (name, n) in OPCODE_NAMES.iter().zip(kinds) {
        assert!(n > 0, "no kernel steps a `{name}` op");
    }
}

/// Dynamic errors surface from both engines with identical payloads at
/// the same step.
#[test]
fn engines_agree_on_dynamic_errors() {
    let main = || "main".to_string();
    let cases = [
        (
            "int main() { int s = 0; for (int i = 3; i >= 0; i = i - 1) { s = s + 12 / i; } return s; }",
            ExecError::DivisionByZero { func: main() },
        ),
        (
            "int main() { int s = 0; for (int i = 3; i >= 0; i = i - 1) { s = s + 12 % i; } return s; }",
            ExecError::RemainderByZero { func: main() },
        ),
        (
            "int main() { int a[4]; for (int i = 0; i < 8; i = i + 1) { a[i] = i; } return a[0]; }",
            ExecError::IndexOutOfBounds { func: main(), index: 4, len: 4, global: false },
        ),
        (
            "int h[8]; int main() { for (int i = 0; i < 12; i = i + 1) { h[i] += 1; } return h[0]; }",
            ExecError::IndexOutOfBounds { func: main(), index: 8, len: 8, global: true },
        ),
        (
            "int d(int x) { return 10 / x; } int main() { int s = 0; for (int i = 2; i >= 0; i = i - 1) { s = s + d(i); } return s; }",
            ExecError::DivisionByZero { func: "d".to_string() },
        ),
    ];
    let registry = Registry::new();
    for (src, expected) in cases {
        let unit = commset_lang::compile_unit(src).expect("compiles");
        let module = commset_ir::lower_program(&unit.program, commset_ir::IntrinsicTable::new())
            .expect("lowers");
        let bc = BcModule::compile(&module);
        let mut run = Lockstep::new(&module, &bc, &registry, &[], World::new(), src.to_string());
        assert_eq!(run.run(), Err(expected), "{src}");
    }
}
