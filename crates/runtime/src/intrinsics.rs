//! The intrinsic registry: executable handlers for `extern` functions.
//!
//! The compile-time half of an intrinsic (types, effect channels, base
//! cost) lives in `commset_ir::IntrinsicTable`; this registry holds the
//! runtime half — the handler closure operating on the [`World`].

use crate::delta::MergeSpec;
use crate::value::Value;
use crate::world::World;
use std::collections::HashMap;
use std::sync::Arc;

/// What an intrinsic call produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntrinsicOutcome {
    /// The returned value (ignored for `void` intrinsics).
    pub value: Value,
    /// Extra data-dependent simulated cost, added to the declared base
    /// cost (e.g. per-byte hashing work).
    pub extra_cost: u64,
    /// How much of the total cost is *serialized* on the intrinsic's write
    /// channels (shared-structure bookkeeping); the remainder is private
    /// compute that overlaps across virtual cores. `None` means the whole
    /// cost serializes (the conservative default).
    pub serialized_cost: Option<u64>,
}

impl IntrinsicOutcome {
    /// An outcome with no extra cost.
    pub fn value(v: impl Into<Value>) -> Self {
        IntrinsicOutcome {
            value: v.into(),
            extra_cost: 0,
            serialized_cost: None,
        }
    }

    /// A void outcome with no extra cost.
    pub fn unit() -> Self {
        IntrinsicOutcome {
            value: Value::Int(0),
            extra_cost: 0,
            serialized_cost: None,
        }
    }

    /// Adds data-dependent cost.
    pub fn with_cost(mut self, cost: u64) -> Self {
        self.extra_cost = cost;
        self
    }

    /// Declares that only `ser` of the total cost holds the write
    /// channels; the rest is private compute.
    pub fn with_serialized(mut self, ser: u64) -> Self {
        self.serialized_cost = Some(ser);
        self
    }
}

/// An intrinsic handler.
pub type Handler = Arc<dyn Fn(&mut World, &[Value]) -> IntrinsicOutcome + Send + Sync>;

/// How one intrinsic touches world slots — the workload-declared static
/// footprint the sharded world uses to route a call to its shard set
/// without holding the whole world.
///
/// These bindings mirror the CommSet structure the transform's sync
/// engine computes: a `Fixed` binding is a group-level (shared instance)
/// slot, a `Striped` binding is a per-instance family of slots
/// partitioned by one integer argument (handles, indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotBinding {
    /// The call always touches exactly this slot.
    Fixed(String),
    /// The call touches `"{base}#{k}"` where
    /// `k = args[arg] mod stripes` (see [`crate::sharded::stripe_of`]).
    Striped {
        /// Slot-family base name.
        base: String,
        /// Number of stripes the family is split into.
        stripes: usize,
        /// Index of the integer argument selecting the stripe.
        arg: usize,
    },
}

/// Where a call must execute, as resolved from its bindings and actual
/// arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// No binding declared: the call may touch anything, so the whole
    /// world must be held (the conservative slow path).
    Whole,
    /// The call touches exactly these slots (possibly none, for pure
    /// intrinsics) — only their home shards need to be held.
    Slots(Vec<String>),
}

/// Name-keyed handler registry.
#[derive(Default, Clone)]
pub struct Registry {
    handlers: HashMap<String, Handler>,
    bindings: HashMap<String, Vec<SlotBinding>>,
    /// Slot (or striped-family base) → declared delta merge operator.
    merges: HashMap<String, MergeSpec>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handler for `name`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate registration (wiring bug).
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut World, &[Value]) -> IntrinsicOutcome + Send + Sync + 'static,
    {
        let prev = self.handlers.insert(name.to_string(), Arc::new(f));
        assert!(prev.is_none(), "duplicate intrinsic handler `{name}`");
    }

    /// Looks up a handler.
    pub fn get(&self, name: &str) -> Option<&Handler> {
        self.handlers.get(name)
    }

    /// Declares the world-slot footprint of intrinsic `name`.
    ///
    /// An empty binding list marks the intrinsic *pure* with respect to
    /// the world (it still runs, but no shard lock is needed). Intrinsics
    /// without any declared binding route to the whole world.
    pub fn bind(&mut self, name: &str, bindings: Vec<SlotBinding>) {
        self.bindings.insert(name.to_string(), bindings);
    }

    /// True when `name` has a declared slot footprint (possibly empty) —
    /// the precondition for [`Registry::route`] to return anything but
    /// [`Route::Whole`], and so for [`Registry::delta_route`] to succeed.
    pub fn is_bound(&self, name: &str) -> bool {
        self.bindings.contains_key(name)
    }

    /// True when at least one intrinsic has a declared slot footprint —
    /// the signal the executor uses to pick the sharded world by default.
    pub fn has_bindings(&self) -> bool {
        !self.bindings.is_empty()
    }

    /// Declares the delta merge operator for `slot` — either a concrete
    /// slot name (`"clustering"`) or a striped-family base (`"objs"`,
    /// covering every `objs#k`). Slots with a declared merge become
    /// eligible for per-worker delta privatization under
    /// `WorldMode::Deltas`.
    pub fn declare_merge(&mut self, slot: &str, spec: MergeSpec) {
        let prev = self.merges.insert(slot.to_string(), spec);
        assert!(prev.is_none(), "duplicate merge declaration for `{slot}`");
    }

    /// The merge spec covering `slot`: an exact match wins, else the
    /// striped-family base (the part before `#`).
    pub fn merge_of(&self, slot: &str) -> Option<&MergeSpec> {
        if let Some(m) = self.merges.get(slot) {
            return Some(m);
        }
        let base = slot.split('#').next().unwrap_or(slot);
        self.merges.get(base)
    }

    /// True when at least one slot has a declared merge operator — the
    /// precondition for `WorldMode::Deltas` to privatize anything.
    pub fn has_merges(&self) -> bool {
        !self.merges.is_empty()
    }

    /// Resolves the delta route for a call: `Some(slots)` when the call's
    /// footprint is known (bound) and *every* touched slot is
    /// merge-declared, so the whole call can run against a worker-private
    /// buffer. Pure calls (empty footprint) return `None` — they already
    /// run lock-free on the shared path. Mixed or unbound footprints
    /// return `None` and stay on the lock-mediated path.
    pub fn delta_route(&self, name: &str, args: &[Value]) -> Option<Vec<String>> {
        match self.route(name, args) {
            Route::Whole => None,
            Route::Slots(slots) => {
                if slots.is_empty() || !slots.iter().all(|s| self.merge_of(s).is_some()) {
                    return None;
                }
                Some(slots)
            }
        }
    }

    /// True when *every* call of `name` is guaranteed to delta-route,
    /// whatever its arguments: the footprint is declared and each bound
    /// slot resolves to a merge operator (striped bindings through the
    /// family base, exactly as [`Registry::merge_of`] will at call
    /// time). Pure bindings (empty footprint) are covered too — they
    /// never touch the shared world. This is the static half of
    /// [`Registry::delta_route`]: executors use it to decide whether a
    /// CommSet region lock can be elided under `WorldMode::Deltas`.
    pub fn delta_covered(&self, name: &str) -> bool {
        match self.bindings.get(name) {
            None => false,
            Some(bs) => bs.iter().all(|b| match b {
                SlotBinding::Fixed(s) => self.merge_of(s).is_some(),
                SlotBinding::Striped { base, .. } => self.merge_of(base).is_some(),
            }),
        }
    }

    /// Resolves the shard route for a call of `name` with `args`.
    pub fn route(&self, name: &str, args: &[Value]) -> Route {
        match self.bindings.get(name) {
            None => Route::Whole,
            Some(bs) => {
                let mut slots = Vec::with_capacity(bs.len());
                for b in bs {
                    match b {
                        SlotBinding::Fixed(s) => slots.push(s.clone()),
                        SlotBinding::Striped { base, stripes, arg } => {
                            let Some(v) = args.get(*arg) else {
                                return Route::Whole; // malformed call: be safe
                            };
                            let k = crate::sharded::stripe_of(v.as_int(), *stripes);
                            slots.push(crate::sharded::stripe_slot(base, k));
                        }
                    }
                }
                slots.sort_unstable();
                slots.dedup();
                Route::Slots(slots)
            }
        }
    }

    /// Invokes the handler for `name`.
    ///
    /// # Panics
    ///
    /// Panics if no handler is registered — generated programs only call
    /// intrinsics their workload registered.
    pub fn call(&self, name: &str, world: &mut World, args: &[Value]) -> IntrinsicOutcome {
        match self.handlers.get(name) {
            Some(h) => h(world, args),
            None => panic!("no handler for intrinsic `{name}`"),
        }
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.handlers.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("handlers", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_call() {
        let mut reg = Registry::new();
        reg.register("bump", |world, args| {
            let c = world.get_mut::<i64>("counter");
            *c += args[0].as_int();
            IntrinsicOutcome::value(*c).with_cost(3)
        });
        let mut world = World::new();
        world.install("counter", 10i64);
        let out = reg.call("bump", &mut world, &[Value::Int(5)]);
        assert_eq!(out.value, Value::Int(15));
        assert_eq!(out.extra_cost, 3);
    }

    #[test]
    #[should_panic(expected = "no handler")]
    fn missing_handler_panics() {
        Registry::new().call("nope", &mut World::new(), &[]);
    }

    #[test]
    fn routes_resolve_from_bindings() {
        let mut reg = Registry::new();
        assert!(!reg.has_bindings());
        assert_eq!(reg.route("anything", &[]), Route::Whole);
        reg.bind("pure", vec![]);
        reg.bind("fixed", vec![SlotBinding::Fixed("console".into())]);
        reg.bind(
            "striped",
            vec![SlotBinding::Striped {
                base: "fs".into(),
                stripes: 8,
                arg: 0,
            }],
        );
        reg.bind(
            "both",
            vec![
                SlotBinding::Fixed("console".into()),
                SlotBinding::Striped {
                    base: "fs".into(),
                    stripes: 8,
                    arg: 1,
                },
            ],
        );
        assert!(reg.has_bindings());
        assert!(reg.is_bound("pure") && !reg.is_bound("unbound"));
        assert_eq!(reg.route("pure", &[]), Route::Slots(vec![]));
        assert_eq!(
            reg.route("fixed", &[]),
            Route::Slots(vec!["console".into()])
        );
        assert_eq!(
            reg.route("striped", &[Value::Int(11)]),
            Route::Slots(vec!["fs#3".into()])
        );
        assert_eq!(
            reg.route("both", &[Value::Int(0), Value::Int(9)]),
            Route::Slots(vec!["console".into(), "fs#1".into()])
        );
        // Missing stripe argument degrades to the safe whole-world route.
        assert_eq!(reg.route("striped", &[]), Route::Whole);
        // Unbound names stay on the whole-world route.
        assert_eq!(reg.route("unbound", &[]), Route::Whole);
    }

    #[test]
    fn delta_routes_require_fully_merged_footprints() {
        let mut reg = Registry::new();
        reg.bind("pure", vec![]);
        reg.bind("acc_add", vec![SlotBinding::Fixed("acc".into())]);
        reg.bind(
            "obj_touch",
            vec![SlotBinding::Striped {
                base: "objs".into(),
                stripes: 8,
                arg: 0,
            }],
        );
        reg.bind(
            "mixed",
            vec![
                SlotBinding::Fixed("acc".into()),
                SlotBinding::Fixed("console".into()),
            ],
        );
        assert!(!reg.has_merges());
        assert_eq!(reg.delta_route("acc_add", &[]), None, "no merge declared");

        reg.declare_merge("acc", crate::delta::MergeSpec::add_i64());
        reg.declare_merge("objs", crate::delta::MergeSpec::add_i64());
        assert!(reg.has_merges());
        assert_eq!(reg.delta_route("acc_add", &[]), Some(vec!["acc".into()]));
        // Striped slots resolve through the family base.
        assert_eq!(
            reg.delta_route("obj_touch", &[Value::Int(11)]),
            Some(vec!["objs#3".into()])
        );
        assert!(reg.merge_of("objs#5").is_some());
        // Pure calls are already lock-free; mixed and unbound footprints
        // stay on the lock-mediated path.
        assert_eq!(reg.delta_route("pure", &[]), None);
        assert_eq!(reg.delta_route("mixed", &[]), None);
        assert_eq!(reg.delta_route("unbound", &[]), None);
    }

    #[test]
    #[should_panic(expected = "duplicate merge declaration")]
    fn duplicate_merge_declaration_panics() {
        let mut reg = Registry::new();
        reg.declare_merge("acc", crate::delta::MergeSpec::add_i64());
        reg.declare_merge("acc", crate::delta::MergeSpec::max_i64());
    }

    #[test]
    #[should_panic(expected = "duplicate intrinsic handler")]
    fn duplicate_registration_panics() {
        let mut reg = Registry::new();
        reg.register("x", |_, _| IntrinsicOutcome::unit());
        reg.register("x", |_, _| IntrinsicOutcome::unit());
    }
}
