//! Randomized property tests over the front end, the symbolic
//! interpreter, the runtime queue and the full compile-and-run pipeline.
//!
//! The workspace carries no external dependencies, so these are driven by
//! the runtime's own deterministic [`SplitMix64`] stream instead of a
//! property-testing crate: every test draws a fixed number of random cases
//! from a fixed seed, so failures reproduce exactly.

use commset::{Compiler, Scheme, SyncMode};
use commset_interp::{run_sequential, run_simulated};
use commset_ir::IntrinsicTable;
use commset_lang::ast::{BinOp, Expr, ExprKind, Type, UnOp};
use commset_lang::parser::parse_expr;
use commset_lang::printer::print_expr;
use commset_lang::sema::PredicateDef;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::rng::SplitMix64;
use commset_runtime::{DeltaBuffer, MergeSpec, Registry, SlotBinding, SpscQueue, Value, World};
use commset_sim::CostModel;

/// Test-local generator facade over the deterministic stream.
struct Gen(SplitMix64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(SplitMix64::new(seed))
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.0.next_below(hi - lo)
    }

    fn irange(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.0.next_below((hi - lo) as u64) as i64
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.0.next_below(items.len() as u64) as usize]
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.0.next_below(den) < num
    }
}

// ---------------------------------------------------------------------------
// Expression printer round-trip
// ---------------------------------------------------------------------------

fn arb_expr(g: &mut Gen, depth: u32) -> Expr {
    if depth == 0 || g.chance(1, 3) {
        // Leaf: literal or variable. Cmm has no negative literals;
        // negation is a unary op.
        return if g.chance(1, 2) {
            Expr::int(g.irange(0, 1000))
        } else {
            Expr::var((*g.pick(&["a", "b", "x1", "y2"])).to_string())
        };
    }
    match g.range(0, 4) {
        0 => {
            let op = *g.pick(&[
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Rem,
                BinOp::Shl,
                BinOp::Shr,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::BitAnd,
                BinOp::BitOr,
                BinOp::BitXor,
                BinOp::And,
                BinOp::Or,
            ]);
            let l = arb_expr(g, depth - 1);
            let r = arb_expr(g, depth - 1);
            Expr::new(
                ExprKind::Binary(op, Box::new(l), Box::new(r)),
                Default::default(),
            )
        }
        1 => {
            let op = *g.pick(&[UnOp::Neg, UnOp::Not, UnOp::BitNot]);
            let e = arb_expr(g, depth - 1);
            Expr::new(ExprKind::Unary(op, Box::new(e)), Default::default())
        }
        2 => {
            let e = arb_expr(g, depth - 1);
            Expr::new(ExprKind::Cast(Type::Int, Box::new(e)), Default::default())
        }
        _ => {
            let mut args = vec![arb_expr(g, depth - 1)];
            for _ in 0..g.range(0, 3) {
                args.push(Expr::int(1));
            }
            Expr::new(ExprKind::Call("f".into(), args), Default::default())
        }
    }
}

/// print -> parse -> print is a fixed point for arbitrary expressions.
#[test]
fn expr_print_parse_round_trip() {
    let mut g = Gen::new(0x00ce_55e7_0001);
    for case in 0..256 {
        let e = arb_expr(&mut g, 4);
        let printed = print_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|d| panic!("case {case}: `{printed}` fails to parse: {d}"));
        assert_eq!(print_expr(&reparsed), printed, "case {case}");
    }
}

// ---------------------------------------------------------------------------
// Symbolic predicate interpreter soundness
// ---------------------------------------------------------------------------

/// Predicates over one parameter pair (a, b), in the fragment the prover
/// understands plus opaque arithmetic it must treat as Unknown.
fn arb_pred_atom(g: &mut Gen) -> Expr {
    let (v, off) = *g.pick(&[("a", 0i64), ("b", 0), ("a", 1), ("b", -1), ("a", 3)]);
    if off == 0 {
        Expr::var(v)
    } else {
        Expr::new(
            ExprKind::Binary(BinOp::Add, Box::new(Expr::var(v)), Box::new(Expr::int(off))),
            Default::default(),
        )
    }
}

fn arb_pred_expr(g: &mut Gen, depth: u32) -> Expr {
    if depth == 0 || g.chance(1, 2) {
        let op = *g.pick(&[
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ]);
        let l = arb_pred_atom(g);
        let r = arb_pred_atom(g);
        return Expr::new(
            ExprKind::Binary(op, Box::new(l), Box::new(r)),
            Default::default(),
        );
    }
    match g.range(0, 3) {
        0 => {
            let l = arb_pred_expr(g, depth - 1);
            let r = arb_pred_expr(g, depth - 1);
            Expr::new(
                ExprKind::Binary(BinOp::And, Box::new(l), Box::new(r)),
                Default::default(),
            )
        }
        1 => {
            let l = arb_pred_expr(g, depth - 1);
            let r = arb_pred_expr(g, depth - 1);
            Expr::new(
                ExprKind::Binary(BinOp::Or, Box::new(l), Box::new(r)),
                Default::default(),
            )
        }
        _ => {
            let e = arb_pred_expr(g, depth - 1);
            Expr::new(ExprKind::Unary(UnOp::Not, Box::new(e)), Default::default())
        }
    }
}

/// Concrete evaluation of a predicate expression.
fn eval_concrete(e: &Expr, a: i64, b: i64) -> i64 {
    match &e.kind {
        ExprKind::IntLit(v) => *v,
        ExprKind::Var(n) => match n.as_str() {
            "a" => a,
            "b" => b,
            _ => unreachable!(),
        },
        ExprKind::Unary(UnOp::Not, x) => i64::from(eval_concrete(x, a, b) == 0),
        ExprKind::Unary(UnOp::Neg, x) => -eval_concrete(x, a, b),
        ExprKind::Binary(op, l, r) => {
            let (l, r) = (eval_concrete(l, a, b), eval_concrete(r, a, b));
            match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Eq => i64::from(l == r),
                BinOp::Ne => i64::from(l != r),
                BinOp::Lt => i64::from(l < r),
                BinOp::Le => i64::from(l <= r),
                BinOp::Gt => i64::from(l > r),
                BinOp::Ge => i64::from(l >= r),
                BinOp::And => i64::from(l != 0 && r != 0),
                BinOp::Or => i64::from(l != 0 || r != 0),
                _ => unreachable!(),
            }
        }
        _ => unreachable!(),
    }
}

fn pred_of(body: &Expr) -> PredicateDef {
    PredicateDef {
        func_name: "__pred_T".into(),
        params1: vec!["a".into()],
        params2: vec!["b".into()],
        param_tys: vec![Type::Int],
        body: body.clone(),
    }
}

/// If the prover says True under `a != b`, every distinct concrete pair
/// satisfies the predicate; if it says False, none does. (Unknown makes
/// no claim.)
#[test]
fn symbolic_prover_is_sound_under_ne() {
    use commset_analysis::symex::{prove, Rel, Tri};
    let mut g = Gen::new(0x00ce_55e7_0002);
    for case in 0..256 {
        let body = arb_pred_expr(&mut g, 3);
        let verdict = prove(&pred_of(&body), &[Rel::Ne]);
        for _ in 0..16 {
            let a = g.irange(-50, 50);
            let mut b = g.irange(-50, 50);
            if a == b {
                b += 1;
            }
            let concrete = eval_concrete(&body, a, b) != 0;
            match verdict {
                Tri::True => assert!(
                    concrete,
                    "case {case}: prover said True but ({a},{b}) fails"
                ),
                Tri::False => {
                    assert!(
                        !concrete,
                        "case {case}: prover said False but ({a},{b}) holds"
                    )
                }
                Tri::Unknown => {}
            }
        }
    }
}

/// Same soundness statement under the equality assertion.
#[test]
fn symbolic_prover_is_sound_under_eq() {
    use commset_analysis::symex::{prove, Rel, Tri};
    let mut g = Gen::new(0x00ce_55e7_0003);
    for case in 0..256 {
        let body = arb_pred_expr(&mut g, 3);
        let verdict = prove(&pred_of(&body), &[Rel::Eq]);
        for _ in 0..16 {
            let v = g.irange(-50, 50);
            let concrete = eval_concrete(&body, v, v) != 0;
            match verdict {
                Tri::True => assert!(concrete, "case {case}: ({v},{v})"),
                Tri::False => assert!(!concrete, "case {case}: ({v},{v})"),
                Tri::Unknown => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SPSC queue model check
// ---------------------------------------------------------------------------

/// Against a VecDeque model under arbitrary single-threaded op mixes.
#[test]
fn spsc_queue_matches_fifo_model() {
    let mut g = Gen::new(0x00ce_55e7_0004);
    for case in 0..128 {
        let cap = g.range(1, 16) as usize;
        let n_ops = g.range(0, 200);
        let q = SpscQueue::new(cap);
        let mut model = std::collections::VecDeque::new();
        for _ in 0..n_ops {
            if g.chance(1, 2) {
                let v = g.range(0, 1000);
                let pushed = q.push_n(&[v]) == 1;
                let model_pushed = model.len() < cap;
                assert_eq!(pushed, model_pushed, "case {case}");
                if model_pushed {
                    model.push_back(v);
                }
            } else {
                let got = q.try_pop();
                assert_eq!(got, model.pop_front(), "case {case}");
            }
            assert_eq!(q.len(), model.len(), "case {case}");
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-pipeline property: generated commutative-reduction loops
// ---------------------------------------------------------------------------

fn reduction_program(n_iters: u32, ops_per_iter: u32) -> String {
    // Each accumulate block commutes with itself (SELF) and with every
    // other accumulate block (the unpredicated Group set ASET).
    let mut body = String::new();
    for k in 0..ops_per_iter {
        body.push_str(&format!(
            "        int v{k} = crunch(i + {k});\n        #pragma CommSet(SELF, ASET)\n        {{ accumulate(v{k}); }}\n"
        ));
    }
    format!(
        r#"
#pragma CommSetDecl(ASET, Group)
extern int crunch(int x);
extern void accumulate(int v);
int main() {{
    for (int i = 0; i < {n_iters}; i = i + 1) {{
{body}    }}
    return 0;
}}
"#
    )
}

fn reduction_setup() -> (IntrinsicTable, Registry) {
    let mut t = IntrinsicTable::new();
    t.register("crunch", vec![Type::Int], Type::Int, &[], &[], 80);
    t.register("accumulate", vec![Type::Int], Type::Void, &[], &["ACC"], 15);
    let mut r = Registry::new();
    r.register("crunch", |_, args| {
        let x = args[0].as_int();
        IntrinsicOutcome::value(x.wrapping_mul(31) % 1009)
    });
    r.register("accumulate", |world, args| {
        *world.get_mut::<i64>("acc") += args[0].as_int();
        IntrinsicOutcome::unit()
    });
    (t, r)
}

/// Any generated commutative-reduction loop produces the sequential sum
/// under DOALL and PS-DSWP at any thread count.
#[test]
fn generated_reductions_parallelize_correctly() {
    let mut g = Gen::new(0x00ce_55e7_0005);
    for case in 0..24 {
        let n_iters = g.range(1, 24) as u32;
        let ops = g.range(1, 4) as u32;
        let threads = g.range(2, 8) as usize;
        let sync = *g.pick(&[SyncMode::Lib, SyncMode::Spin, SyncMode::Mutex]);

        let src = reduction_program(n_iters, ops);
        let (table, registry) = reduction_setup();
        let compiler = Compiler::new(table);
        let analysis = compiler.analyze(&src).expect("generated program analyzes");
        assert!(
            analysis.doall_legal(),
            "case {case}: {}",
            analysis.pdg_dump()
        );
        let cm = CostModel::default();

        let seq_module = compiler.compile_sequential(&analysis).unwrap();
        let mut seq_world = World::new();
        seq_world.install("acc", 0i64);
        run_sequential(&seq_module, &registry, &mut seq_world, &cm, "main").unwrap();
        let expected = *seq_world.get::<i64>("acc");

        for scheme in [Scheme::Doall, Scheme::PsDswp] {
            let Ok((module, plan)) = compiler.compile(&analysis, scheme, threads, sync) else {
                continue;
            };
            let mut world = World::new();
            world.install("acc", 0i64);
            run_simulated(&module, &registry, &[plan], &mut world, &cm).unwrap();
            assert_eq!(
                *world.get::<i64>("acc"),
                expected,
                "case {case}: {scheme} x{threads} {sync} on {n_iters} iters x {ops} ops"
            );
        }
    }
}

/// A generated loop with the alloc/use/free pattern over an
/// instance-partitioned channel (the hmmer/potrace shape).
fn object_program(n_iters: u32) -> String {
    format!(
        r#"
#pragma CommSetDecl(MSET, Group)
#pragma CommSetPredicate(MSET, (i1), (i2), i1 != i2)
extern handle obj_new(int n);
extern int obj_use(handle h);
extern void obj_free(handle h);
extern void accumulate(int v);
int main() {{
    for (int i = 0; i < {n_iters}; i = i + 1) {{
        handle h = handle(0);
        #pragma CommSet(SELF, MSET(i))
        {{ h = obj_new(i); }}
        int v = obj_use(h);
        #pragma CommSet(SELF)
        {{ accumulate(v); }}
        #pragma CommSet(SELF, MSET(i))
        {{ obj_free(h); }}
    }}
    return 0;
}}
"#
    )
}

fn object_setup() -> (IntrinsicTable, Registry) {
    let mut t = IntrinsicTable::new();
    t.register("obj_new", vec![Type::Int], Type::Handle, &[], &["OBJ"], 25);
    t.mark_fresh_handle("obj_new");
    t.register(
        "obj_use",
        vec![Type::Handle],
        Type::Int,
        &["OBJ_DATA"],
        &["OBJ_DATA"],
        120,
    );
    t.register(
        "obj_free",
        vec![Type::Handle],
        Type::Void,
        &[],
        &["OBJ", "OBJ_DATA"],
        15,
    );
    t.mark_per_instance("OBJ_DATA");
    t.register("accumulate", vec![Type::Int], Type::Void, &[], &["ACC"], 15);
    let mut r = Registry::new();
    r.register("obj_new", |world, args| {
        let h = world
            .get_mut::<commset_workloads::worldlib::AllocTable>("objs")
            .alloc(args[0].as_int() * 3 + 1);
        IntrinsicOutcome::value(h)
    });
    r.register("obj_use", |world, args| {
        // Panics if the object was freed too early — the property this
        // pattern checks under every generated schedule.
        let p = world
            .get::<commset_workloads::worldlib::AllocTable>("objs")
            .payload(args[0].as_int());
        IntrinsicOutcome::value(p)
    });
    r.register("obj_free", |world, args| {
        world
            .get_mut::<commset_workloads::worldlib::AllocTable>("objs")
            .free(args[0].as_int());
        IntrinsicOutcome::unit()
    });
    r.register("accumulate", |world, args| {
        *world.get_mut::<i64>("acc") += args[0].as_int();
        IntrinsicOutcome::unit()
    });
    (t, r)
}

/// The alloc/use/free pattern over instance-partitioned channels never
/// uses a freed object and computes the sequential sum, under every
/// applicable scheme, sync mode and thread count.
#[test]
fn generated_object_loops_never_use_freed_objects() {
    let mut g = Gen::new(0x00ce_55e7_0006);
    for case in 0..24 {
        let n_iters = g.range(1, 32) as u32;
        let threads = g.range(2, 8) as usize;
        let sync = *g.pick(&[SyncMode::Lib, SyncMode::Spin, SyncMode::Mutex]);

        let src = object_program(n_iters);
        let (table, registry) = object_setup();
        let compiler = Compiler::new(table);
        let analysis = compiler.analyze(&src).expect("generated program analyzes");
        assert!(
            analysis.doall_legal(),
            "case {case}: {}",
            analysis.pdg_dump()
        );
        let cm = CostModel::default();

        let fresh_world = || {
            let mut w = World::new();
            w.install("acc", 0i64);
            w.install("objs", commset_workloads::worldlib::AllocTable::default());
            w
        };
        let seq_module = compiler.compile_sequential(&analysis).unwrap();
        let mut seq_world = fresh_world();
        run_sequential(&seq_module, &registry, &mut seq_world, &cm, "main").unwrap();
        let expected = *seq_world.get::<i64>("acc");

        for scheme in [Scheme::Doall, Scheme::Dswp, Scheme::PsDswp] {
            let Ok((module, plan)) = compiler.compile(&analysis, scheme, threads, sync) else {
                continue;
            };
            let mut world = fresh_world();
            // `obj_use` panics on a freed handle, so finishing at all
            // proves the schedule preserved the use-before-free order.
            run_simulated(&module, &registry, &[plan], &mut world, &cm).unwrap();
            assert_eq!(
                *world.get::<i64>("acc"),
                expected,
                "case {case}: {scheme} x{threads}"
            );
            assert_eq!(
                world
                    .get::<commset_workloads::worldlib::AllocTable>("objs")
                    .live_count(),
                0,
                "case {case}: no leaks under {scheme}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-pipeline property: predicated-Self keyed writes with affine keys
// ---------------------------------------------------------------------------

/// A loop writing a table at key `i + off` through an interface-level
/// member whose predicate proves disjointness of distinct keys.
fn keyed_program(n_iters: u32, off: u32) -> String {
    format!(
        r#"
#pragma CommSetDecl(KSET, Self)
#pragma CommSetPredicate(KSET, (k1), (k2), k1 != k2)
#pragma CommSetNoSync(KSET)
extern int crunch(int x);
extern void table_put(int k, int v);
#pragma CommSet(KSET(k))
void put_keyed(int k, int v) {{ table_put(k, v); }}
int main() {{
    for (int i = 0; i < {n_iters}; i = i + 1) {{
        int v = crunch(i);
        put_keyed(i + {off}, v);
    }}
    return 0;
}}
"#
    )
}

fn keyed_setup(slots: usize) -> (IntrinsicTable, Registry, impl Fn() -> World) {
    let mut t = IntrinsicTable::new();
    t.register("crunch", vec![Type::Int], Type::Int, &[], &[], 90);
    t.register(
        "table_put",
        vec![Type::Int, Type::Int],
        Type::Void,
        &[],
        &["TABLE"],
        12,
    );
    let mut r = Registry::new();
    r.register("crunch", |_, args| {
        IntrinsicOutcome::value(args[0].as_int().wrapping_mul(17) % 257)
    });
    r.register("table_put", |world, args| {
        let t = world.get_mut::<Vec<i64>>("table");
        t[args[0].as_int() as usize] = args[1].as_int();
        IntrinsicOutcome::unit()
    });
    let fresh = move || {
        let mut w = World::new();
        w.install("table", vec![-1i64; slots]);
        w
    };
    (t, r, fresh)
}

/// Affine keys `i + off` through a predicated Self set stay lock-free
/// and produce the sequential table under every generated schedule.
#[test]
fn generated_keyed_loops_parallelize_correctly() {
    let mut g = Gen::new(0x00ce_55e7_0007);
    for case in 0..24 {
        let n_iters = g.range(1, 28) as u32;
        let off = g.range(0, 5) as u32;
        let threads = g.range(2, 8) as usize;

        let src = keyed_program(n_iters, off);
        let (table, registry, fresh) = keyed_setup((n_iters + off) as usize);
        let compiler = Compiler::new(table);
        let analysis = compiler.analyze(&src).expect("generated program analyzes");
        assert!(
            analysis.doall_legal(),
            "case {case}: {}",
            analysis.pdg_dump()
        );
        let cm = CostModel::default();

        let seq_module = compiler.compile_sequential(&analysis).unwrap();
        let mut seq_world = fresh();
        run_sequential(&seq_module, &registry, &mut seq_world, &cm, "main").unwrap();
        let expected = seq_world.get::<Vec<i64>>("table").clone();

        for scheme in [Scheme::Doall, Scheme::PsDswp] {
            let Ok((module, plan)) = compiler.compile(&analysis, scheme, threads, SyncMode::Spin)
            else {
                continue;
            };
            assert!(
                plan.locks.iter().all(|l| l.set != "KSET"),
                "case {case}: NoSync keyed set must stay lock-free: {:?}",
                plan.locks
            );
            let mut world = fresh();
            run_simulated(&module, &registry, &[plan], &mut world, &cm).unwrap();
            assert_eq!(
                world.get::<Vec<i64>>("table"),
                &expected,
                "case {case}: {scheme} x{threads} off={off}"
            );
        }
    }
}

/// A loop-invariant key refutes the predicate: the write must stay a
/// carried dependence no matter the generated shape.
#[test]
fn generated_constant_key_loops_stay_sequential() {
    let mut g = Gen::new(0x00ce_55e7_0008);
    for case in 0..24 {
        let n_iters = g.range(2, 28) as u32;
        let key = g.range(0, 4) as u32;
        let src = keyed_program(n_iters, 0)
            .replace("put_keyed(i + 0, v);", &format!("put_keyed({key}, v);"));
        let (table, _, _) = keyed_setup(8);
        let compiler = Compiler::new(table);
        let analysis = compiler.analyze(&src).expect("analyzes");
        assert!(
            !analysis.doall_legal(),
            "case {case}: {}",
            analysis.pdg_dump()
        );
    }
}

// ---------------------------------------------------------------------------
// Delta-merge laws
// ---------------------------------------------------------------------------

fn unbox_i64(b: Box<dyn std::any::Any + Send>) -> i64 {
    *b.downcast::<i64>().expect("i64 delta")
}

/// The scalar built-in merge operators (`add`, `max`) satisfy the three
/// laws delta privatization assumes — commutativity, associativity, and
/// identity — over randomized operand triples; `set-union` satisfies
/// them at multiset level (its append order is absorbed by the
/// workloads' own order-insensitive validation).
#[test]
fn builtin_merge_operators_obey_the_delta_laws() {
    let mut g = Gen::new(0x5eed_de17_0001);
    for spec in [MergeSpec::add_i64(), MergeSpec::max_i64()] {
        let fold = |x: i64, y: i64| {
            let mut base: Box<dyn std::any::Any + Send> = Box::new(x);
            spec.apply(base.as_mut(), Box::new(y));
            unbox_i64(base)
        };
        for case in 0..200 {
            let a = g.irange(-100_000, 100_000);
            let b = g.irange(-100_000, 100_000);
            let c = g.irange(-100_000, 100_000);
            assert_eq!(
                fold(a, b),
                fold(b, a),
                "case {case}: `{}` not commutative",
                spec.op
            );
            assert_eq!(
                fold(fold(a, b), c),
                fold(a, fold(b, c)),
                "case {case}: `{}` not associative",
                spec.op
            );
            // Folding one delta into the identity buffer yields the delta.
            let mut fresh = spec.fresh("acc");
            spec.apply(fresh.as_mut(), Box::new(a));
            assert_eq!(
                unbox_i64(fresh),
                a,
                "case {case}: `{}` identity is not neutral",
                spec.op
            );
        }
    }
    let union = MergeSpec::union_vec_i64();
    let fold = |x: &[i64], y: &[i64]| {
        let mut base: Box<dyn std::any::Any + Send> = Box::new(x.to_vec());
        union.apply(base.as_mut(), Box::new(y.to_vec()));
        *base.downcast::<Vec<i64>>().expect("vec delta")
    };
    let multiset = |mut v: Vec<i64>| {
        v.sort_unstable();
        v
    };
    for case in 0..100 {
        let draw =
            |g: &mut Gen| -> Vec<i64> { (0..g.range(0, 8)).map(|_| g.irange(-50, 50)).collect() };
        let (a, b, c) = (draw(&mut g), draw(&mut g), draw(&mut g));
        assert_eq!(
            multiset(fold(&a, &b)),
            multiset(fold(&b, &a)),
            "case {case}: set-union not multiset-commutative"
        );
        assert_eq!(
            fold(&fold(&a, &b), &c),
            fold(&a, &fold(&b, &c)),
            "case {case}: set-union not associative"
        );
        let mut fresh = union.fresh("set");
        union.apply(fresh.as_mut(), Box::new(a.clone()));
        assert_eq!(
            *fresh.downcast::<Vec<i64>>().expect("vec delta"),
            a,
            "case {case}: empty vec is not neutral"
        );
    }
}

/// The end-to-end privatization property: a random update sequence,
/// partitioned arbitrarily across 1–8 workers into real [`DeltaBuffer`]s
/// and coalesced in worker order, produces exactly the state of applying
/// every update sequentially — and the coalesce order does not matter
/// (reverse worker order agrees), which is what makes the schedule-free
/// delta path sound.
#[test]
fn random_worker_partitions_coalesce_to_the_sequential_fold() {
    let mut g = Gen::new(0x5eed_de17_0002);
    for case in 0..60 {
        let mut reg = Registry::new();
        reg.register("bump", |w, args| {
            *w.get_mut::<i64>("acc") += args[0].as_int();
            IntrinsicOutcome::unit()
        });
        reg.register("lift", |w, args| {
            let m = w.get_mut::<i64>("hi");
            *m = (*m).max(args[0].as_int());
            IntrinsicOutcome::unit()
        });
        reg.register("put", |w, args| {
            w.get_mut::<Vec<i64>>("set").push(args[0].as_int());
            IntrinsicOutcome::unit()
        });
        reg.bind("bump", vec![SlotBinding::Fixed("acc".into())]);
        reg.bind("lift", vec![SlotBinding::Fixed("hi".into())]);
        reg.bind("put", vec![SlotBinding::Fixed("set".into())]);
        reg.declare_merge("acc", MergeSpec::add_i64());
        reg.declare_merge("hi", MergeSpec::max_i64());
        reg.declare_merge("set", MergeSpec::union_vec_i64());

        let workers = g.range(1, 9) as usize;
        let n = g.range(1, 64);
        let ops = ["bump", "lift", "put"];
        let updates: Vec<(&str, i64, usize)> = (0..n)
            .map(|_| {
                (
                    *g.pick(&ops),
                    g.irange(-1000, 1000),
                    g.range(0, workers as u64) as usize,
                )
            })
            .collect();

        // Sequential reference: every update in sequence order against
        // one shared world.
        let fresh_world = || {
            let mut w = World::new();
            w.install("acc", 0i64);
            w.install("hi", i64::MIN);
            w.install("set", Vec::<i64>::new());
            w
        };
        let mut seq = fresh_world();
        for &(op, v, _) in &updates {
            reg.call(op, &mut seq, &[Value::Int(v)]);
        }

        // Privatized run: the same updates land in per-worker buffers via
        // the real delta route, then coalesce in worker order — and, as a
        // second sample of the commutativity the laws promise, in reverse.
        for reverse in [false, true] {
            let mut bufs: Vec<DeltaBuffer> = (0..workers).map(|_| DeltaBuffer::new()).collect();
            for &(op, v, w) in &updates {
                let args = [Value::Int(v)];
                let slots = reg
                    .delta_route(op, &args)
                    .expect("fully merge-declared footprint");
                bufs[w].apply(&reg, op, &args, &slots);
            }
            let mut world = fresh_world();
            let order: Vec<DeltaBuffer> = if reverse {
                bufs.into_iter().rev().collect()
            } else {
                bufs
            };
            for buf in order {
                if buf.is_empty() {
                    continue;
                }
                for (slot, d) in buf.drain() {
                    let spec = reg.merge_of(&slot).expect("declared above");
                    let mut base = world.take_boxed(&slot).expect("installed above");
                    spec.apply(base.as_mut(), d);
                    world.install_boxed(slot, base);
                }
            }
            assert_eq!(
                world.get::<i64>("acc"),
                seq.get::<i64>("acc"),
                "case {case} (reverse={reverse}): add diverged"
            );
            assert_eq!(
                world.get::<i64>("hi"),
                seq.get::<i64>("hi"),
                "case {case} (reverse={reverse}): max diverged"
            );
            let multiset = |v: &Vec<i64>| {
                let mut v = v.clone();
                v.sort_unstable();
                v
            };
            assert_eq!(
                multiset(world.get::<Vec<i64>>("set")),
                multiset(seq.get::<Vec<i64>>("set")),
                "case {case} (reverse={reverse}): set-union diverged"
            );
        }
    }
}
