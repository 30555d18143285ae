//! Merge-operator law validation for `custom(fn)` sidecar rows.
//!
//! A `merge CHAN custom(f)` row hands the section-barrier delta coalesce
//! to a program-defined operator. The runtime folds per-worker deltas in
//! a deterministic order, but the result only matches the sequential
//! oracle when the operator satisfies the laws the privatized execution
//! silently assumes: commutativity, associativity, and identity 0 (the
//! value a fresh delta buffer starts from). This module checks those
//! laws *dynamically* before any schedule is explored: the named Cmm
//! function `int f(int a, int b)` is evaluated over SplitMix64-seeded
//! samples, and any violation is rejected with a structured `merge`
//! diagnostic carrying a concrete witness pair — the same
//! evidence-not-assertion style the checker uses for schedule
//! divergences.
//!
//! The built-in operators (`add`, `max`, `set-union`) are law-abiding by
//! construction and are not re-checked here.

use crate::spec::EffectsSpec;
use commset_interp::globals::PlainGlobals;
use commset_interp::vm::StepOutcome;
use commset_interp::{BcModule, BcVm};
use commset_ir::repr::Module;
use commset_ir::{lower_program, IntrinsicTable};
use commset_lang::ast::Type;
use commset_lang::diag::{Diagnostic, Phase};
use commset_runtime::rng::SplitMix64;
use commset_runtime::Value;

/// Seed for the sampled-law probes. Fixed so a violation always reports
/// the same witness pair (goldenable diagnostics).
const LAW_SEED: u64 = 0xC0A1_E5CE_D317_0005;

/// Number of sampled triples per law.
const LAW_SAMPLES: usize = 32;

fn merge_diag(chan: &str, func: &str, detail: String) -> Diagnostic {
    Diagnostic::global(
        Phase::Commset,
        format!("merge `{chan}` custom({func}): {detail}"),
    )
}

/// Evaluates the pure Cmm function `func(a, b)` of `module`, compiled as
/// `bc`, to completion.
fn eval2(module: &Module, bc: &BcModule, func: &str, a: i64, b: i64) -> Result<i64, String> {
    let mut vm = BcVm::for_name(module, bc, func, &[Value::Int(a), Value::Int(b)])
        .map_err(|e| e.to_string())?;
    // Fresh globals per call: the operator must behave as a pure
    // function of its arguments, so persistent state is not modeled.
    let mut globals = PlainGlobals::new(module);
    loop {
        match vm.step(&mut globals).map_err(|e| e.to_string())? {
            StepOutcome::Ran { .. } => {}
            StepOutcome::Finished(Some(Value::Int(v))) => return Ok(v),
            StepOutcome::Finished(other) => {
                return Err(format!("returned {other:?} instead of an int"))
            }
            StepOutcome::Special(p) => {
                return Err(format!(
                    "calls extern `{}`; custom merge operators must be pure",
                    module.intrinsics.name(p.intrinsic.0 as usize)
                ))
            }
        }
    }
}

/// Validates every `custom(fn)` merge row in `spec` against the merge
/// laws, by sampled evaluation of the named function in `source`.
///
/// # Errors
///
/// Returns a `merge`-prefixed [`Diagnostic`] naming the channel, the
/// operator function, the violated law, and a concrete witness when the
/// function is missing, has the wrong signature, is impure, traps, or
/// fails commutativity / associativity / identity-0 on a sampled input.
pub fn validate_custom_merges(
    source: &str,
    spec: &EffectsSpec,
    table: &IntrinsicTable,
) -> Result<(), Diagnostic> {
    let customs: Vec<(&str, &str)> = spec
        .merges
        .iter()
        .filter_map(|(chan, op)| {
            let f = op.strip_prefix("custom(")?.strip_suffix(')')?;
            Some((chan.as_str(), f))
        })
        .collect();
    if customs.is_empty() {
        return Ok(());
    }
    let unit = commset_lang::compile_unit(source)?;
    let module = lower_program(&unit.program, table.clone())?;
    let bc = BcModule::compile(&module);
    for (chan, func) in customs {
        let Some(id) = module.func_id(func) else {
            return Err(merge_diag(
                chan,
                func,
                "operator function is not defined in the program".into(),
            ));
        };
        let f = module.func(id);
        let int_params = f.param_count == 2 && f.slots[..2].iter().all(|s| s.ty == Type::Int);
        if !int_params || f.ret != Type::Int {
            return Err(merge_diag(
                chan,
                func,
                format!(
                    "operator must have signature `int {func}(int, int)`, \
                     found {} parameter(s) returning {:?}",
                    f.param_count, f.ret
                ),
            ));
        }
        let eval = |a: i64, b: i64| -> Result<i64, Diagnostic> {
            eval2(&module, &bc, func, a, b)
                .map_err(|detail| merge_diag(chan, func, format!("{func}({a}, {b}) {detail}")))
        };
        // Small magnitudes keep the probes inside i64 arithmetic for any
        // reasonable operator; edge values are seeded explicitly.
        let mut rng = SplitMix64::new(LAW_SEED);
        let mut sample = || (rng.next_u64() % 2001) as i64 - 1000;
        let mut triples = vec![(0, 0, 0), (1, -1, 2), (-1000, 1000, 1)];
        for _ in 0..LAW_SAMPLES {
            triples.push((sample(), sample(), sample()));
        }
        for &(a, b, c) in &triples {
            let ab = eval(a, b)?;
            let ba = eval(b, a)?;
            if ab != ba {
                return Err(merge_diag(
                    chan,
                    func,
                    format!(
                        "operator is not commutative: {func}({a}, {b}) = {ab} \
                         but {func}({b}, {a}) = {ba}"
                    ),
                ));
            }
            let ab_c = eval(ab, c)?;
            let bc = eval(b, c)?;
            let a_bc = eval(a, bc)?;
            if ab_c != a_bc {
                return Err(merge_diag(
                    chan,
                    func,
                    format!(
                        "operator is not associative: \
                         {func}({func}({a}, {b}), {c}) = {ab_c} but \
                         {func}({a}, {func}({b}, {c})) = {a_bc}"
                    ),
                ));
            }
            let a0 = eval(a, 0)?;
            if a0 != a {
                return Err(merge_diag(
                    chan,
                    func,
                    format!(
                        "operator lacks identity 0: {func}({a}, 0) = {a0}, \
                         expected {a}"
                    ),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_effects;

    fn check(src: &str, effects: &str) -> Result<(), Diagnostic> {
        let spec = parse_effects(effects).expect("sidecar parses");
        validate_custom_merges(src, &spec, &IntrinsicTable::new())
    }

    #[test]
    fn lawful_operator_passes() {
        let src = "int join(int a, int b) { return a + b; }\n\
                   int main() { return join(1, 2); }";
        check(src, "merge ACC custom(join)\n").expect("addition is lawful");
    }

    #[test]
    fn saturating_max_style_operator_passes() {
        let src = "int keep_max(int a, int b) { if (a > b) { return a; } return b; }\n\
                   int main() { return keep_max(1, 2); }";
        // max over the sampled range has identity 0 only for non-negative
        // inputs — expect the identity law to catch the negative witness.
        let err = check(src, "merge HI custom(keep_max)\n").unwrap_err();
        assert!(err.message.contains("lacks identity 0"), "{err}");
    }

    #[test]
    fn subtraction_fails_commutativity_with_a_witness() {
        let src = "int join(int a, int b) { return a - b; }\n\
                   int main() { return join(1, 2); }";
        let err = check(src, "merge ACC custom(join)\n").unwrap_err();
        assert!(
            err.message.starts_with("merge `ACC` custom(join):"),
            "{err}"
        );
        assert!(err.message.contains("not commutative"), "{err}");
    }

    #[test]
    fn missing_and_misshapen_operators_are_rejected() {
        let err = check("int main() { return 0; }", "merge ACC custom(nope)\n").unwrap_err();
        assert!(err.message.contains("not defined"), "{err}");
        let err = check(
            "int one(int a) { return a; } int main() { return 0; }",
            "merge ACC custom(one)\n",
        )
        .unwrap_err();
        assert!(err.message.contains("signature"), "{err}");
        let err = check(
            "extern int probe(int a); int join(int a, int b) { return a + probe(b); } \
             int main() { return 0; }",
            "merge ACC custom(join)\n",
        )
        .unwrap_err();
        assert_eq!(
            err.message,
            "merge `ACC` custom(join): join(0, 0) calls extern `probe`; \
             custom merge operators must be pure"
        );
        let err = check(
            "int join(int a, int b) { return a / 0; } int main() { return 0; }",
            "merge ACC custom(join)\n",
        )
        .unwrap_err();
        assert_eq!(
            err.message,
            "merge `ACC` custom(join): join(0, 0) division by zero in `join`"
        );
    }

    #[test]
    fn builtin_rows_are_not_rechecked() {
        check("int main() { return 0; }", "merge ACC add\nmerge HI max\n")
            .expect("built-ins need no program function");
    }
}
