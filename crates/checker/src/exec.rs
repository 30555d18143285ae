//! The controlled (schedule-driven) executor.
//!
//! Replays a *transformed* parallel program with the scheduling decisions
//! taken by an explicit [`Scheduler`] instead of a clock or the OS: each
//! worker runs until its next **visible event** — the entry of an outlined
//! commutative region (`__commset_region_*`), a blocking queue pop, or
//! (under [`ModelConfig::pause_at_world_calls`]) a bare world-intrinsic
//! call, the schedule-space analogue of a shard acquisition in the real
//! runtime's sharded world — and the scheduler picks which paused worker
//! executes next. A chosen
//! region runs *atomically* (the paper's synchronization already
//! guarantees mutual exclusion of same-set members; the checker varies
//! only their *order*). The runtime specials mean what
//! [`substrate::special`] says, over this executor's substrate: locks and
//! transactions are vacuous, pipeline queues are real FIFOs, world calls
//! go to the [`ModelWorld`], and a wait — an empty queue, or a world call
//! to surface — pauses the worker for the scheduler.
//!
//! The run is a pure function of `(program, plan, scheduler, model config)`
//! — same inputs, same interleaving, same final world. The program is
//! compiled once, into a [`ControlledProgram`], and every schedule of a
//! campaign runs that one compile.

use crate::model::{ModelConfig, ModelWorld};
use commset_interp::globals::PlainGlobals;
use commset_interp::substrate::{
    self, Call, ChannelWaits, Lane, Moved, Park, Prim, Section, Step, Substrate,
};
use commset_interp::vm::GlobalMem;
use commset_interp::{BcModule, BcVm, ExecConfig, ExecError, SpecialOp, StepOutcome};
use commset_ir::{IntrinsicTable, Module};
use commset_runtime::rng::SplitMix64;
use commset_runtime::{FaultInjector, FaultPlan, Registry, Value};
use commset_telemetry::EventLog;
use commset_transform::ParallelPlan;
use std::collections::VecDeque;

/// A failure of a controlled run.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// The VM reported a dynamic error.
    Exec(String),
    /// No worker can advance but not all are done.
    Deadlock {
        /// Human-readable per-worker states.
        states: Vec<String>,
    },
    /// The step budget was exhausted (runaway schedule).
    BudgetExhausted,
    /// A queue pop blocked *inside* a commutative region — the controlled
    /// executor cannot keep the region atomic.
    PopInsideRegion {
        /// The region function.
        func: String,
    },
    /// The program shape is unsupported (nested sections, unknown queue).
    Unsupported(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Exec(e) => write!(f, "execution error: {e}"),
            CheckError::Deadlock { states } => {
                write!(f, "schedule deadlocked: [{}]", states.join(", "))
            }
            CheckError::BudgetExhausted => write!(f, "step budget exhausted"),
            CheckError::PopInsideRegion { func } => {
                write!(f, "queue pop blocked inside region {func}")
            }
            CheckError::Unsupported(s) => write!(f, "unsupported: {s}"),
        }
    }
}

impl From<ExecError> for CheckError {
    fn from(e: ExecError) -> Self {
        CheckError::Exec(e.to_string())
    }
}

/// One scheduled region execution (the interleaving log's unit).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionExec {
    /// Worker index within the section.
    pub worker: usize,
    /// The region function.
    pub func: String,
    /// The region instance arguments.
    pub args: Vec<Value>,
}

impl std::fmt::Display for RegionExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let args = self
            .args
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        write!(f, "[w{}] {}({args})", self.worker, self.func)
    }
}

/// Renders an interleaving, one region per line.
pub fn render_interleaving(log: &[RegionExec]) -> String {
    log.iter().map(|r| format!("  {r}\n")).collect()
}

/// Final state of a controlled run.
#[derive(Debug, Clone)]
pub struct ControlledOutcome {
    /// The abstract world after execution.
    pub world: ModelWorld,
    /// Final scalar globals (name, value), `__`-prefixed names excluded.
    pub globals: Vec<(String, Value)>,
    /// The region interleaving that was executed.
    pub log: Vec<RegionExec>,
    /// VM steps spent (against the step budget) — the exploration
    /// throughput denominator the metrics registry reports.
    pub steps: u64,
}

/// A schedule: picks which paused worker advances next.
pub trait Scheduler {
    /// The schedule's stable, human-readable name.
    fn name(&self) -> String;
    /// Picks one element of `ready` (worker ids, ascending). The default
    /// contract: must return a member of `ready`.
    fn pick(&mut self, ready: &[usize]) -> usize;
}

/// Always the lowest-numbered ready worker (runs whole workers in order).
pub struct Canonical;
impl Scheduler for Canonical {
    fn name(&self) -> String {
        "canonical".into()
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        ready[0]
    }
}

/// Always the highest-numbered ready worker.
pub struct Reverse;
impl Scheduler for Reverse {
    fn name(&self) -> String {
        "reverse".into()
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        *ready.last().expect("nonempty ready set")
    }
}

/// Cycles through workers, one region each.
pub struct RoundRobin {
    next: usize,
}
impl RoundRobin {
    /// Starts at worker 0.
    pub fn new() -> Self {
        RoundRobin { next: 0 }
    }
}
impl Default for RoundRobin {
    fn default() -> Self {
        RoundRobin::new()
    }
}
impl Scheduler for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        let w = ready
            .iter()
            .copied()
            .find(|w| *w >= self.next)
            .unwrap_or(ready[0]);
        self.next = w + 1;
        w
    }
}

/// Holds back one worker until the others have executed `hold` regions —
/// the systematic pair-flip: it reorders the victim's k-th same-set
/// instance after its neighbors'.
pub struct Delay {
    victim: usize,
    hold: usize,
    executed_others: usize,
}
impl Delay {
    /// Delay `victim`'s first region until `hold` other regions ran.
    pub fn new(victim: usize, hold: usize) -> Self {
        Delay {
            victim,
            hold,
            executed_others: 0,
        }
    }
}
impl Scheduler for Delay {
    fn name(&self) -> String {
        format!("delay(w{},{})", self.victim, self.hold)
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        let non_victim = ready.iter().copied().find(|w| *w != self.victim);
        match non_victim {
            Some(w) if self.executed_others < self.hold => {
                self.executed_others += 1;
                w
            }
            _ => {
                if ready.contains(&self.victim) {
                    self.victim
                } else {
                    ready[0]
                }
            }
        }
    }
}

/// Wraps a scheduler and records every decision it takes — the raw
/// material for the counterexample shrinker and the schedule-diversity
/// guard.
pub struct Recording<'a> {
    inner: &'a mut dyn Scheduler,
    /// The chosen worker at each decision point, in order.
    pub trace: Vec<usize>,
}
impl<'a> Recording<'a> {
    /// Records `inner`'s picks.
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        Recording {
            inner,
            trace: Vec::new(),
        }
    }
}
impl Scheduler for Recording<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        let c = self.inner.pick(ready);
        self.trace.push(c);
        c
    }
}

/// Replays a recorded decision trace. `None` entries (and positions past
/// the trace, and recorded picks that are no longer ready) fall back to
/// the canonical choice — so a partially-canonicalized trace is always a
/// valid schedule. This is the shrinker's search space: flip recorded
/// decisions back to canonical one at a time and keep the flips that
/// preserve the violation.
pub struct Replay {
    decisions: Vec<Option<usize>>,
    pos: usize,
    /// Per pick, in order: whether it returned `ready[0]`.
    pub canonical: Vec<bool>,
}
impl Replay {
    /// Replays `decisions`; `None` means "canonical choice here".
    pub fn new(decisions: Vec<Option<usize>>) -> Self {
        Replay {
            decisions,
            pos: 0,
            canonical: Vec::new(),
        }
    }
}
impl Scheduler for Replay {
    fn name(&self) -> String {
        let flips = self.decisions.iter().flatten().count();
        format!("replay({flips} pinned)")
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        let want = self.decisions.get(self.pos).copied().flatten();
        self.pos += 1;
        let w = match want {
            Some(w) if ready.contains(&w) => w,
            _ => ready[0],
        };
        self.canonical.push(w == ready[0]);
        w
    }
}

/// Seeded random choice — the bounded "everything else" of the budget.
pub struct Chaos {
    rng: SplitMix64,
    seed: u64,
}
impl Chaos {
    /// A chaos schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        Chaos {
            rng: SplitMix64::new(seed),
            seed,
        }
    }
}
impl Scheduler for Chaos {
    fn name(&self) -> String {
        format!("chaos({:#x})", self.seed)
    }
    fn pick(&mut self, ready: &[usize]) -> usize {
        ready[self.rng.next_below(ready.len() as u64) as usize]
    }
}

#[derive(Debug, Clone, PartialEq)]
enum WState {
    /// Paused at the entry of a region (frame pushed, body unexecuted).
    AtRegion {
        func: String,
        args: Vec<Value>,
    },
    /// Paused at a bare world-intrinsic call (shard-acquisition point);
    /// only reachable under [`ModelConfig::pause_at_world_calls`].
    AtWorldCall {
        intrinsic: usize,
        args: Vec<Value>,
    },
    /// Blocked popping queue `q` (by plan index).
    BlockedPop(usize),
    Done,
}

struct CWorker<'m> {
    vm: BcVm<'m>,
    state: WState,
    lane: Lane,
}

/// A transformed module compiled for controlled execution: its bytecode
/// and its decoded intrinsics. A campaign builds one and every schedule,
/// shrinker replay and worker VM of the campaign borrows it.
pub struct ControlledProgram {
    module: Module,
    bc: BcModule,
    /// The decoded intrinsics, indexed by `IntrinsicId`.
    ops: Vec<SpecialOp>,
    /// The substrate semantics' registry, injector and configuration: no
    /// merges, no faults, no watchdog.
    registry: Registry,
    injector: FaultInjector,
    exec: ExecConfig,
}

impl ControlledProgram {
    /// Compiles `module` and decodes its intrinsic table.
    pub fn new(module: Module) -> Self {
        ControlledProgram {
            bc: BcModule::compile(&module),
            ops: SpecialOp::decode_table(&module.intrinsics),
            module,
            registry: Registry::new(),
            injector: FaultInjector::new(FaultPlan::none()),
            exec: ExecConfig {
                watchdog: false,
                ..ExecConfig::default()
            },
        }
    }
}

/// The checker's substrate: regions execute atomically, so locks and
/// transactions are vacuous; queues are FIFOs and world calls go to the
/// model world, or wait for the scheduler's turn when `pause` is set.
struct Model<'a> {
    world: ModelWorld,
    queues: Vec<VecDeque<u64>>,
    intrinsics: &'a IntrinsicTable,
    pause: bool,
}

impl Substrate for Model<'_> {
    fn push(&mut self, _w: usize, q: usize, bits: u64) -> Result<Prim<Moved>, ExecError> {
        self.queues[q].push_back(bits);
        let occupancy = self.queues[q].len() as u64;
        Ok(Prim::done(Moved {
            attempt: 0,
            occupancy,
            bits,
        }))
    }

    fn pop(&mut self, _w: usize, q: usize) -> Result<Prim<Moved>, ExecError> {
        Ok(match self.queues[q].pop_front() {
            Some(bits) => Prim::done(Moved {
                attempt: 0,
                occupancy: self.queues[q].len() as u64,
                bits,
            }),
            None => Prim::wait(None),
        })
    }

    fn world(&mut self, _w: usize, call: Call<'_>) -> Option<(Value, ChannelWaits)> {
        if self.pause {
            return None;
        }
        let value = self.world.call(self.intrinsics, call.name, call.args);
        Some((value, Vec::new()))
    }
}

struct Machine<'m> {
    program: &'m ControlledProgram,
    model: Model<'m>,
    budget: u64,
    section: Section<'m>,
    /// Never on: the checker records no events.
    log: EventLog,
    /// Pause workers at bare world calls (shard-acquisition points).
    pause_world: bool,
}

impl<'m> Machine<'m> {
    fn spend(&mut self) -> Result<(), CheckError> {
        if self.budget == 0 {
            return Err(CheckError::BudgetExhausted);
        }
        self.budget -= 1;
        Ok(())
    }

    /// Steps `vm` until its next pause point. `in_region` makes queue-pop
    /// blocking an error (regions must stay atomic) and returns at region
    /// *exit* instead of entry.
    fn run_vm(
        &mut self,
        vm: &mut BcVm<'_>,
        lane: &mut Lane,
        globals: &mut PlainGlobals,
        in_region: bool,
        region_func: &str,
    ) -> Result<WState, CheckError> {
        // Copy the program reference out so intrinsic names can stay
        // borrowed `&str` across the `self.world` calls below.
        let program = self.program;
        let module = &program.module;
        loop {
            self.spend()?;
            match vm.step(globals)? {
                StepOutcome::Ran { .. } => {
                    for ev in vm.drain_call_events() {
                        if !in_region && ev.enter && ev.depth == 1 {
                            return Ok(WState::AtRegion {
                                func: ev.func,
                                args: ev.args,
                            });
                        }
                    }
                    if in_region && vm.watched_depth() == 0 {
                        return Ok(WState::AtRegion {
                            // Placeholder — caller continues to next pause.
                            func: String::new(),
                            args: Vec::new(),
                        });
                    }
                }
                StepOutcome::Finished(_) => return Ok(WState::Done),
                StepOutcome::Special(p) => {
                    let id = p.intrinsic.0 as usize;
                    let call = Call {
                        id,
                        name: module.intrinsics.name(id),
                        args: &p.args,
                    };
                    // A bare world call is a shard-acquisition point:
                    // surface it to the scheduler.
                    self.model.pause = self.pause_world && !in_region;
                    let (sec, model, log) = (&self.section, &mut self.model, &mut self.log);
                    match substrate::special(sec, model, lane, log, program.ops[id], call)? {
                        Step::Value(v) => vm.resolve_special(v),
                        // The special stays pending; the section loop
                        // executes it when this worker is picked.
                        Step::Wait(Park::World) => {
                            return Ok(WState::AtWorldCall {
                                intrinsic: id,
                                args: p.args,
                            })
                        }
                        Step::Wait(_) if in_region => {
                            return Err(CheckError::PopInsideRegion {
                                func: region_func.to_string(),
                            })
                        }
                        Step::Wait(park) => {
                            vm.retry_special_later();
                            return match park {
                                Park::Pop(q) => Ok(WState::BlockedPop(q)),
                                _ => Err(CheckError::Unsupported(format!("{park:?} wait"))),
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Runs the transformed `program` under `plan`, scheduling same-section
/// region instances with `sched`.
///
/// # Errors
///
/// Returns a [`CheckError`] on dynamic errors, deadlock, budget
/// exhaustion or unsupported program shapes.
pub fn run_controlled(
    program: &ControlledProgram,
    plan: &ParallelPlan,
    model_cfg: &ModelConfig,
    sched: &mut dyn Scheduler,
    step_budget: u64,
) -> Result<ControlledOutcome, CheckError> {
    let module = &program.module;
    let mut machine = Machine {
        program,
        model: Model {
            world: ModelWorld::new(model_cfg.clone()),
            queues: plan.queues.iter().map(|_| VecDeque::new()).collect(),
            intrinsics: &module.intrinsics,
            pause: false,
        },
        budget: step_budget,
        section: Section::new(plan, &program.registry, &program.injector, &program.exec),
        log: EventLog::new(false),
        pause_world: model_cfg.pause_at_world_calls,
    };
    let mut globals = PlainGlobals::new(module);
    let mut main = BcVm::for_name(module, &program.bc, "main", &[])?;
    let mut log: Vec<RegionExec> = Vec::new();

    loop {
        machine.spend()?;
        match main.step(&mut globals)? {
            StepOutcome::Ran { .. } => {}
            StepOutcome::Finished(_) => break,
            StepOutcome::Special(p) => {
                let name = module.intrinsics.name(p.intrinsic.0 as usize);
                if program.ops[p.intrinsic.0 as usize] == SpecialOp::ParInvoke {
                    let section = p.args[0].as_int();
                    if section != plan.section {
                        return Err(CheckError::Unsupported(format!(
                            "section {section} has no plan"
                        )));
                    }
                    run_section(&mut machine, plan, &mut globals, sched, &mut log)?;
                    main.resolve_special(Value::Int(0));
                } else if name.starts_with("__") {
                    return Err(CheckError::Unsupported(format!(
                        "synchronization intrinsic {name} outside a section"
                    )));
                } else {
                    let v = machine.model.world.call(&module.intrinsics, name, &p.args);
                    main.resolve_special(v);
                }
            }
        }
    }

    Ok(ControlledOutcome {
        steps: step_budget - machine.budget,
        world: machine.model.world,
        globals: snapshot_globals(module, &mut globals),
        log,
    })
}

/// Final scalar globals (name, value), transform-introduced `__`-prefixed
/// names and arrays excluded, sorted by name.
fn snapshot_globals(module: &Module, globals: &mut PlainGlobals) -> Vec<(String, Value)> {
    let mut finals: Vec<(String, Value)> = Vec::new();
    for g in &module.globals {
        if g.name.starts_with("__") || g.len.is_some() {
            continue;
        }
        if let Some(id) = module.global_id(&g.name) {
            finals.push((g.name.clone(), globals.load(id)));
        }
    }
    finals.sort_by(|a, b| a.0.cmp(&b.0));
    finals
}

/// Runs the *sequential* (untransformed) `module` against a fresh model
/// world — the oracle every controlled schedule is compared to.
///
/// # Errors
///
/// Returns a [`CheckError`] on dynamic errors, budget exhaustion, or if a
/// synchronization intrinsic appears (the module was not sequential).
pub fn run_sequential_model(
    module: &Module,
    model_cfg: &ModelConfig,
    step_budget: u64,
) -> Result<ControlledOutcome, CheckError> {
    // The oracle is sequentially consistent by definition: a stray
    // per-run store-buffer window must not leak into it.
    let mut seq_cfg = model_cfg.clone();
    seq_cfg.sb_window = None;
    let bc = BcModule::compile(module);
    let mut world = ModelWorld::new(seq_cfg);
    let mut globals = PlainGlobals::new(module);
    let mut vm = BcVm::for_name(module, &bc, "main", &[])?;
    let mut budget = step_budget;
    loop {
        if budget == 0 {
            return Err(CheckError::BudgetExhausted);
        }
        budget -= 1;
        match vm.step(&mut globals)? {
            StepOutcome::Ran { .. } => {}
            StepOutcome::Finished(_) => break,
            StepOutcome::Special(p) => {
                let name = module.intrinsics.name(p.intrinsic.0 as usize);
                if name.starts_with("__") {
                    return Err(CheckError::Unsupported(format!(
                        "synchronization intrinsic {name} in the sequential oracle"
                    )));
                }
                let v = world.call(&module.intrinsics, name, &p.args);
                vm.resolve_special(v);
            }
        }
    }
    Ok(ControlledOutcome {
        steps: step_budget - budget,
        world,
        globals: snapshot_globals(module, &mut globals),
        log: Vec::new(),
    })
}

fn run_section<'m>(
    machine: &mut Machine<'m>,
    plan: &ParallelPlan,
    globals: &mut PlainGlobals,
    sched: &mut dyn Scheduler,
    log: &mut Vec<RegionExec>,
) -> Result<(), CheckError> {
    let mut workers: Vec<CWorker<'m>> = Vec::with_capacity(plan.workers.len());
    for (i, w) in plan.workers.iter().enumerate() {
        let program = machine.program;
        let mut vm = substrate::worker_vm(&program.module, &program.bc, w, true)?;
        let mut lane = machine.section.lane(i, w.tid);
        // Run the pre-region prefix (private computation) eagerly, in
        // worker order — deterministic and schedule-irrelevant.
        machine.model.world.set_worker(i + 1);
        let state = machine.run_vm(&mut vm, &mut lane, globals, false, &w.func)?;
        workers.push(CWorker { vm, state, lane });
    }

    loop {
        // Re-arm blocked pops whose queue has data.
        let ready: Vec<usize> = workers
            .iter()
            .enumerate()
            .filter(|(_, w)| match &w.state {
                WState::AtRegion { .. } | WState::AtWorldCall { .. } => true,
                WState::BlockedPop(q) => !machine.model.queues[*q].is_empty(),
                WState::Done => false,
            })
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            if workers.iter().all(|w| w.state == WState::Done) {
                // Section barrier: every store buffer drains, so the
                // final write multisets match an SC interleaving.
                machine.model.world.flush_all();
                machine.model.world.set_worker(0);
                return Ok(());
            }
            return Err(CheckError::Deadlock {
                states: workers
                    .iter()
                    .enumerate()
                    .map(|(i, w)| format!("w{i}:{:?}", w.state))
                    .collect(),
            });
        }
        let chosen = sched.pick(&ready);
        debug_assert!(ready.contains(&chosen), "scheduler returned non-ready");
        // Every scheduled event is one tick of the store-buffer clock;
        // parked writes older than the window drain before the event runs.
        machine.model.world.tick_advance();
        machine.model.world.set_worker(chosen + 1);
        let w = &mut workers[chosen];
        match w.state.clone() {
            WState::AtRegion { func, args } => {
                log.push(RegionExec {
                    worker: chosen,
                    func: func.clone(),
                    args,
                });
                // Execute the region body atomically...
                let after = machine.run_vm(&mut w.vm, &mut w.lane, globals, true, &func)?;
                w.state = match after {
                    WState::Done => WState::Done,
                    // ...then run to the next pause point.
                    _ => machine.run_vm(&mut w.vm, &mut w.lane, globals, false, &func)?,
                };
            }
            WState::AtWorldCall { intrinsic, args } => {
                // Execute the pending world call (the shard acquisition
                // the worker paused at), then run to the next pause.
                let intrinsics = &machine.program.module.intrinsics;
                let v = machine
                    .model
                    .world
                    .call(intrinsics, intrinsics.name(intrinsic), &args);
                w.vm.resolve_special(v);
                w.state = machine.run_vm(&mut w.vm, &mut w.lane, globals, false, "")?;
            }
            WState::BlockedPop(_) => {
                w.state = machine.run_vm(&mut w.vm, &mut w.lane, globals, false, "")?;
            }
            WState::Done => unreachable!("done workers are not ready"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedulers_respect_the_ready_set() {
        let ready = vec![0, 2, 3];
        assert_eq!(Canonical.pick(&ready), 0);
        assert_eq!(Reverse.pick(&ready), 3);
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(&ready), 0);
        assert_eq!(rr.pick(&ready), 2);
        assert_eq!(rr.pick(&ready), 3);
        assert_eq!(rr.pick(&ready), 0);
        let mut d = Delay::new(0, 2);
        assert_eq!(d.pick(&ready), 2);
        assert_eq!(d.pick(&ready), 2);
        assert_eq!(d.pick(&ready), 0, "victim released after hold");
        let mut c = Chaos::new(7);
        for _ in 0..20 {
            assert!(ready.contains(&c.pick(&ready)));
        }
    }

    #[test]
    fn recording_and_replay_round_trip() {
        let ready = vec![0, 1, 2];
        let mut base = Reverse;
        let mut rec = Recording::new(&mut base);
        for _ in 0..3 {
            rec.pick(&ready);
        }
        assert_eq!(rec.trace, vec![2, 2, 2]);
        // Replaying the trace reproduces it; canonicalizing one decision
        // falls back to ready[0]; past the trace end is canonical too.
        let mut rep = Replay::new(vec![Some(2), None, Some(2)]);
        assert_eq!(rep.pick(&ready), 2);
        assert_eq!(rep.pick(&ready), 0);
        assert_eq!(rep.pick(&ready), 2);
        assert_eq!(rep.pick(&ready), 0, "past-end is canonical");
        assert_eq!(rep.canonical, vec![false, true, false, true]);
        // A pinned worker that is no longer ready degrades to canonical.
        let mut rep = Replay::new(vec![Some(7)]);
        assert_eq!(rep.pick(&ready), 0);
        assert_eq!(rep.canonical, vec![true]);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let ready = vec![0, 1, 2, 3];
        let run = |seed| {
            let mut c = Chaos::new(seed);
            (0..32).map(|_| c.pick(&ready)).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds explore differently");
    }
}
