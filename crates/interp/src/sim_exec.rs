//! The simulated-parallel executor.
//!
//! Runs `main` sequentially until `__par_invoke(section)`, then executes
//! the section's workers as virtual threads under a discrete-event
//! scheduler: each worker VM owns a clock; lock, queue and transaction
//! interactions are resolved by `commset-sim`'s contention models; the
//! scheduler always advances the ready worker with the lowest
//! `(clock, index)`, so shared state mutates in simulated-time order and
//! the whole run is deterministic. Speedups reported by the benchmark
//! harness are ratios of the `sim_time` produced here.
//!
//! Scheduling: the picked worker runs until another ready worker
//! overtakes it. Alongside the pick the scheduler records the lowest
//! `(clock, index)` among the *other* ready workers — the rival — and
//! keeps stepping the picked worker while its own `(clock, index)` stays
//! below it. This is the same schedule as re-picking the minimum before
//! every op: a plain op changes only the running worker's clock and
//! nobody's status, so the rival is still the minimum of the rest and the
//! re-pick would choose the running worker exactly when it is still below
//! the rival. A special (lock, queue, transaction, world call) can block
//! the runner or wake others, so after each one the scheduler picks
//! afresh.
//!
//! Runtime specials are decoded once per run ([`SpecialOp`] plus the
//! pre-resolved world handler and channel footprint of every intrinsic),
//! so no name is compared or hashed per call.
//!
//! Robustness: every dynamic error and contract violation surfaces as an
//! [`ExecError`] (no panics); [`run_simulated_with`] additionally injects
//! an adversarial [`FaultPlan`](commset_runtime::FaultPlan) schedule and
//! runs the waits-for watchdog, whose report lands in [`SimStats`].

use crate::bytecode::{BcModule, BcVm};
use crate::config::{ExecConfig, WorldMode};
use crate::error::ExecError;
use crate::globals::PlainGlobals;
use crate::metrics::MetricsLocal;
use crate::special::SpecialOp;
use crate::vm::{PendingSpecial, StepOutcome};
use commset_ir::{ChannelId, EffectSig, Module};
use commset_runtime::intrinsics::Handler;
use commset_runtime::{
    DeltaBuffer, DeltaSnapshot, FaultInjector, FaultStats, IntrinsicOutcome, Registry, Value,
    Watchdog, WatchdogReport, World, DELTA_POISON_MSG,
};
use commset_sim::lock::AcquireOutcome;
use commset_sim::{CostModel, PopOutcome, PushOutcome, SimLock, SimLockKind, SimQueue, TmModel};
use commset_telemetry::{
    ClockUnit, EventKind, EventLog, JournalEvent, MetricsRegistry, Projection, RunCounters,
    RunReport, SectionMeta,
};
use commset_transform::{ParallelPlan, SyncMode};
use std::collections::HashMap;

/// Statistics of one simulated run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Per-lock (set name, contention ratio).
    pub lock_contention: Vec<(String, f64)>,
    /// Transactions committed.
    pub tm_commits: u64,
    /// Transactions aborted.
    pub tm_aborts: u64,
    /// Transactions that escalated to the modeled rank-0 global lock
    /// after exhausting their optimistic retry budget.
    pub tm_fallbacks: u64,
    /// Total queue pushes.
    pub queue_pushes: u64,
    /// Pops that found an empty queue (pipeline stall indicator).
    pub queue_stalls: u64,
    /// Faults delivered by the injection plan.
    pub fault: FaultStats,
    /// Waits-for watchdog findings (merged over all sections).
    pub watchdog: WatchdogReport,
    /// Delta-privatized activity (all zero unless [`WorldMode::Deltas`]
    /// routed calls into per-worker buffers).
    pub delta: DeltaSnapshot,
}

/// Result of a simulated run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// `main`'s return value.
    pub result: Option<Value>,
    /// Total simulated time (sequential sections + parallel sections).
    pub sim_time: u64,
    /// Statistics from the parallel sections.
    pub stats: SimStats,
    /// The unified profiling report, present iff [`ExecConfig::telemetry`]
    /// was on. Timestamps are deterministic logical ticks, so the report
    /// is bit-identical across runs.
    pub telemetry: Option<RunReport>,
    /// The merged metrics registry (opcode retires, hot-block ranks,
    /// lock/channel wait histograms, queue occupancy, delta merge
    /// sizes), present iff [`ExecConfig::metrics`] was on. Recording is
    /// passive — no modeled clock is touched — so `sim_time` is
    /// bit-identical with metrics on or off.
    pub metrics: Option<MetricsRegistry>,
}

/// Run-wide observability. The DES is single-threaded, so one event log
/// serves every virtual worker of the current section, and one local
/// accumulator takes every retired op.
struct Observed {
    /// The current section's events in emission order; `log.on` is the
    /// check every event site makes.
    log: EventLog,
    /// Spans, trace and metric families of the finished sections.
    proj: Projection,
    /// Opcode and block retires, when metrics are on.
    retires: Option<MetricsLocal>,
}

impl Observed {
    fn retire(&mut self, bc: &BcModule, site: Option<(u32, u32)>, cost: u64) {
        if let (Some(r), Some(site)) = (self.retires.as_mut(), site) {
            r.retire(bc, site, cost);
        }
    }
}

/// Deadline conversion for the DES: [`ExecConfig::deadline_ms`] becomes a
/// deterministic tick budget (1 ms = 1000 ticks, matching the thread
/// executor's microsecond-denominated injection costs).
const TICKS_PER_MS: u64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum WStatus {
    Ready,
    BlockedPop(usize),
    BlockedPush(usize),
    BlockedLock(usize),
    Done,
}

/// One intrinsic as the DES executes it, decoded once per run.
struct Decoded<'a> {
    op: SpecialOp,
    name: &'a str,
    sig: &'a EffectSig,
    /// The world handler; `None` when the registry has none, which panics
    /// on call exactly as [`Registry::call`] does.
    handler: Option<&'a Handler>,
    /// The intrinsic has a declared slot footprint, the precondition for
    /// a call to delta-route.
    bound: bool,
    /// Channel ids read or written, each once in declaration order,
    /// per-instance channels left out (they never serialize).
    shared: Vec<usize>,
    /// The subset of `shared` the intrinsic writes.
    shared_writes: Vec<usize>,
}

impl Decoded<'_> {
    fn call(&self, world: &mut World, args: &[Value]) -> IntrinsicOutcome {
        match self.handler {
            Some(h) => h(world, args),
            None => panic!("no handler for intrinsic `{}`", self.name),
        }
    }
}

/// Run-wide, read-only context: the program, its decoded intrinsics and
/// the executor configuration.
struct RunCtx<'a> {
    module: &'a Module,
    bc: &'a BcModule,
    registry: &'a Registry,
    cm: &'a CostModel,
    cfg: &'a ExecConfig,
    injector: &'a FaultInjector,
    /// Indexed by `IntrinsicId`.
    intrinsics: Vec<Decoded<'a>>,
    /// Channel names indexed by channel id; empty when observability is
    /// off.
    channel_names: Vec<String>,
}

impl<'a> RunCtx<'a> {
    fn new(
        module: &'a Module,
        bc: &'a BcModule,
        registry: &'a Registry,
        cm: &'a CostModel,
        cfg: &'a ExecConfig,
        injector: &'a FaultInjector,
    ) -> Self {
        let table = &module.intrinsics;
        // Channel ids of `chans`, each once in order, per-instance ones
        // left out.
        let shared = |chans: &[&[ChannelId]]| {
            let mut out: Vec<usize> = Vec::new();
            for &c in chans.iter().copied().flatten() {
                if !table.is_per_instance(c) && !out.contains(&(c.0 as usize)) {
                    out.push(c.0 as usize);
                }
            }
            out
        };
        let intrinsics = table
            .iter()
            .map(|(name, sig)| Decoded {
                op: SpecialOp::decode(name),
                name,
                sig,
                handler: registry.get(name),
                bound: registry.is_bound(name),
                shared: shared(&[&sig.reads, &sig.writes]),
                shared_writes: shared(&[&sig.writes]),
            })
            .collect();
        let channel_names = if cfg.telemetry || cfg.metrics {
            (0..table.channels.len())
                .map(|c| table.channels.name(ChannelId(c as u32)).to_string())
                .collect()
        } else {
            Vec::new()
        };
        RunCtx {
            module,
            bc,
            registry,
            cm,
            cfg,
            injector,
            intrinsics,
            channel_names,
        }
    }

    fn decoded(&self, p: &PendingSpecial) -> &Decoded<'a> {
        &self.intrinsics[p.intrinsic.0 as usize]
    }
}

/// Runs the transformed program under the DES with the default
/// configuration (no faults, watchdog on).
///
/// `plans` must contain one plan per `__par_invoke` section in the
/// program, keyed by its `section` field.
///
/// # Errors
///
/// Returns an [`ExecError`] on executor-contract violations (unknown
/// section or queue, deadlock, nested parallel sections) and on VM
/// dynamic errors; worker errors are wrapped as
/// [`ExecError::WorkerFailed`] naming the stage function.
pub fn run_simulated(
    module: &Module,
    registry: &Registry,
    plans: &[ParallelPlan],
    world: &mut World,
    cm: &CostModel,
) -> Result<SimOutcome, ExecError> {
    run_simulated_with(module, registry, plans, world, cm, &ExecConfig::default())
}

/// [`run_simulated`] with explicit fault-injection, backoff and watchdog
/// configuration.
///
/// # Errors
///
/// As [`run_simulated`].
pub fn run_simulated_with(
    module: &Module,
    registry: &Registry,
    plans: &[ParallelPlan],
    world: &mut World,
    cm: &CostModel,
    cfg: &ExecConfig,
) -> Result<SimOutcome, ExecError> {
    let injector = FaultInjector::new(cfg.fault.clone());
    let bc = BcModule::compile(module);
    let ctx = RunCtx::new(module, &bc, registry, cm, cfg, &injector);
    let mut globals = PlainGlobals::new(module);
    let mut vm = BcVm::for_name(module, &bc, "main", &[])?;
    let mut sim_time: u64 = 0;
    let mut stats = SimStats::default();
    let mut obs = Observed {
        log: EventLog::new(cfg.telemetry || cfg.metrics),
        proj: Projection::new(ClockUnit::Ticks, cfg.telemetry),
        retires: cfg.metrics.then(MetricsLocal::new),
    };
    let mut metas: Vec<SectionMeta> = Vec::new();
    let mut next_ord = 0usize;
    loop {
        // Sampled before the step so a retired op attributes to the site
        // that produced it; `None` when metrics are off.
        let site = obs.retires.as_ref().and_then(|_| vm.site());
        match vm.step(&mut globals)? {
            StepOutcome::Ran { cost } => {
                sim_time += cost * cm.inst;
                obs.retire(&bc, site, cost);
            }
            StepOutcome::Special(p) => {
                let d = ctx.decoded(&p);
                if d.op == SpecialOp::ParInvoke {
                    let section = p.args[0].as_int();
                    let plan = plans
                        .iter()
                        .find(|pl| pl.section == section)
                        .ok_or(ExecError::UnknownSection { section })?;
                    next_ord += 1;
                    if let Some(j) = &cfg.journal {
                        j.record(JournalEvent {
                            section: Some((next_ord - 1) as u64),
                            ..JournalEvent::new("section_start", sim_time)
                                .field("plan_section", section.to_string())
                                .field("workers", plan.workers.len().to_string())
                        });
                    }
                    let (end, section_stats, meta) = run_section(
                        &ctx,
                        plan,
                        world,
                        &mut globals,
                        sim_time,
                        next_ord - 1,
                        &mut obs,
                    )?;
                    if let Some(j) = &cfg.journal {
                        j.record(JournalEvent {
                            section: Some((next_ord - 1) as u64),
                            ..JournalEvent::new("section_end", end)
                        });
                    }
                    sim_time = end;
                    merge_stats(&mut stats, section_stats);
                    if cfg.telemetry {
                        metas.extend(meta);
                    }
                    vm.resolve_special(Value::Int(0));
                } else {
                    let out = d.call(world, &p.args);
                    sim_time += d.sig.base_cost + out.extra_cost;
                    vm.resolve_special(out.value);
                }
            }
            StepOutcome::Finished(result) => {
                stats.fault = injector.stats();
                let telemetry = cfg.telemetry.then(|| {
                    let counters = RunCounters {
                        fault: stats.fault,
                        watchdog_checks: stats.watchdog.checks,
                        watchdog_clean: stats.watchdog.is_clean(),
                        max_blocked: stats.watchdog.max_blocked,
                        // The DES has no sharded world and no SPSC rings:
                        // empty-pop counts stand in for empty spins.
                        shard: Default::default(),
                        delta: stats.delta,
                        tm_commits: stats.tm_commits,
                        tm_aborts: stats.tm_aborts,
                        tm_fallbacks: stats.tm_fallbacks,
                        queue_full_spins: 0,
                        queue_empty_spins: stats.queue_stalls,
                        queue_drained: 0,
                    };
                    obs.proj.report(metas, counters)
                });
                let metrics = obs.retires.as_ref().map(|r| {
                    let mut reg = std::mem::take(&mut obs.proj.metrics);
                    r.publish(module, &bc, &mut reg);
                    reg.inc("delta.applies", stats.delta.applies);
                    reg.inc("delta.coalesces", stats.delta.coalesces);
                    reg.inc("delta.merged_slots", stats.delta.merged_slots);
                    reg.inc("delta.lock_elisions", stats.delta.lock_elisions);
                    reg.inc("tm.commits", stats.tm_commits);
                    reg.inc("tm.aborts", stats.tm_aborts);
                    reg.inc("tm.fallbacks", stats.tm_fallbacks);
                    reg.inc("queue.pushes", stats.queue_pushes);
                    reg.inc("queue.empty_pops", stats.queue_stalls);
                    if let Some(j) = &cfg.journal {
                        j.record_metrics(sim_time, &reg);
                    }
                    reg
                });
                if let Some(j) = &cfg.journal {
                    j.record(
                        JournalEvent::new("sim_finished", sim_time)
                            .field("sim_time", sim_time.to_string()),
                    );
                }
                return Ok(SimOutcome {
                    result,
                    sim_time,
                    stats,
                    telemetry,
                    metrics,
                });
            }
        }
    }
}

fn merge_stats(into: &mut SimStats, from: SimStats) {
    into.lock_contention.extend(from.lock_contention);
    into.tm_commits += from.tm_commits;
    into.tm_aborts += from.tm_aborts;
    into.tm_fallbacks += from.tm_fallbacks;
    into.queue_pushes += from.queue_pushes;
    into.queue_stalls += from.queue_stalls;
    into.delta.absorb(from.delta);
    merge_watchdog(&mut into.watchdog, from.watchdog);
}

/// Folds one section's watchdog findings into the run's.
pub(crate) fn merge_watchdog(into: &mut WatchdogReport, from: WatchdogReport) {
    into.checks += from.checks;
    for c in from.cycles {
        if !into.cycles.contains(&c) {
            into.cycles.push(c);
        }
    }
    for v in from.rank_violations {
        if !into.rank_violations.contains(&v) {
            into.rank_violations.push(v);
        }
    }
    into.max_blocked = into.max_blocked.max(from.max_blocked);
}

struct Worker<'m> {
    vm: BcVm<'m>,
    clock: u64,
    status: WStatus,
    tx: Option<commset_sim::tm::TxRecord>,
    /// Modeled optimistic aborts of the in-flight transaction (drives the
    /// starvation fallback to the rank-0 global lock).
    tx_aborts: u64,
    /// True when retrying a lock acquisition after having blocked on it
    /// (pays the contention penalty).
    lock_retry: bool,
}

/// The scheduling decision: among the ready workers, given as
/// `(index, clock)` in index order, the one with the lowest
/// `(clock, index)` — the worker the DES advances — and the lowest
/// `(clock, index)` among the others, its rival. `None` when no worker is
/// ready.
fn pick(ready: impl Iterator<Item = (usize, u64)>) -> Option<(usize, Option<(u64, usize)>)> {
    let mut best: Option<(u64, usize)> = None;
    let mut rival: Option<(u64, usize)> = None;
    for (k, clock) in ready {
        let key = (clock, k);
        if best.is_none_or(|b| key < b) {
            rival = best;
            best = Some(key);
        } else if rival.is_none_or(|r| key < r) {
            rival = Some(key);
        }
    }
    best.map(|(_, k)| (k, rival))
}

/// True while worker `i` at `clock` is still the minimum-`(clock, index)`
/// ready worker, i.e. nobody has overtaken it: a tie goes to the lower
/// index, so a running worker that ties a lower-indexed rival yields.
fn still_first(clock: u64, i: usize, rival: Option<(u64, usize)>) -> bool {
    rival.is_none_or(|r| (clock, i) < r)
}

/// The substrate of one parallel section: the contention models and the
/// per-section lookup tables every special consults.
struct SectionState {
    locks: Vec<SimLock>,
    queues: Vec<SimQueue>,
    /// Queue id -> index into `queues` (ids may be sparse in principle).
    queue_index: HashMap<i64, usize>,
    tm: TmModel,
    watchdog: Option<Watchdog>,
    /// Channel id -> tick at which its in-flight writer finishes.
    channel_free: Vec<u64>,
    /// One buffer per worker under delta privatization, else empty.
    delta_bufs: Vec<DeltaBuffer>,
    /// Lock rank -> elided under delta privatization.
    elided: Vec<bool>,
}

impl SectionState {
    fn qidx(&self, args: &[Value]) -> Result<usize, ExecError> {
        let id = args[0].as_int();
        self.queue_index
            .get(&id)
            .copied()
            .ok_or(ExecError::UnknownQueue { id })
    }
}

/// Executes one parallel section, the `ord`-th of the run, and projects
/// its events; returns (end time, stats, section metadata when
/// observability is on).
fn run_section<'m>(
    ctx: &RunCtx<'m>,
    plan: &ParallelPlan,
    world: &mut World,
    globals: &mut PlainGlobals,
    start: u64,
    ord: usize,
    obs: &mut Observed,
) -> Result<(u64, SimStats, Option<SectionMeta>), ExecError> {
    let (registry, cm, cfg, injector) = (ctx.registry, ctx.cm, ctx.cfg, ctx.injector);
    let lock_kind = match plan.sync {
        SyncMode::Spin => SimLockKind::Spin,
        _ => SimLockKind::Mutex,
    };
    let mut queue_index: HashMap<i64, usize> = HashMap::new();
    let mut queues: Vec<SimQueue> = Vec::new();
    for q in &plan.queues {
        queue_index.insert(q.id, queues.len());
        queues.push(SimQueue::new(injector.clamp_capacity(q.capacity)));
    }
    // Delta privatization: merge-covered calls run against per-worker
    // buffers with no channel serialization at all (the modeled analogue
    // of taking no shard lock); the buffers fold back into the world in
    // worker-index order at the section end. Pipeline sections (queues
    // present) keep the serialized discipline.
    let delta_on =
        matches!(cfg.world, WorldMode::Deltas) && registry.has_merges() && plan.queues.is_empty();
    let mut sec = SectionState {
        locks: plan
            .locks
            .iter()
            .map(|_| {
                let mut l = SimLock::new(lock_kind);
                l.free_at = start;
                l
            })
            .collect(),
        queue_index,
        tm: TmModel::new(),
        watchdog: cfg.watchdog.then(Watchdog::new),
        // The virtual world is internally thread-safe (the paper's "Lib"
        // discipline): each intrinsic execution serializes on the
        // channels it writes, and readers wait for in-flight writers.
        // This is what makes I/O-channel saturation emerge at high
        // thread counts.
        channel_free: vec![0; ctx.module.intrinsics.channels.len()],
        delta_bufs: if delta_on {
            (0..plan.workers.len())
                .map(|_| DeltaBuffer::new())
                .collect()
        } else {
            Vec::new()
        },
        // Static lock elision: a CommSet region lock whose guarded
        // intrinsics are all delta-covered serializes nothing — every
        // effect in the region lands in a worker-private buffer,
        // invisible to siblings until the barrier, and the declared
        // merges make the coalesce order immaterial. Synthetic locks
        // (`__reduction`) have no members and are never elided.
        elided: plan
            .locks
            .iter()
            .map(|ls| {
                delta_on
                    && !ls.members.is_empty()
                    && ls.members.iter().all(|m| registry.delta_covered(m))
            })
            .collect(),
        queues,
    };

    let spawn_t = start + cm.par_spawn;
    let mut workers: Vec<Worker<'m>> = Vec::with_capacity(plan.workers.len());
    for w in &plan.workers {
        let mut vm = BcVm::for_name(
            ctx.module,
            ctx.bc,
            &w.func,
            &[Value::Int(w.tid), Value::Int(w.nt)],
        )?;
        if cfg.telemetry {
            vm.watch_calls_matching("__commset_region_");
        }
        workers.push(Worker {
            vm,
            clock: spawn_t,
            status: WStatus::Ready,
            tx: None,
            tx_aborts: 0,
            lock_retry: false,
        });
    }

    loop {
        let ready = workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.status == WStatus::Ready)
            .map(|(k, w)| (k, w.clock));
        let Some((i, rival)) = pick(ready) else {
            if workers.iter().all(|w| w.status == WStatus::Done) {
                break;
            }
            return Err(ExecError::Deadlock {
                section: plan.section,
                waiting: workers
                    .iter()
                    .enumerate()
                    .map(|(k, w)| {
                        format!(
                            "{k}:{:?}@{}({})",
                            w.status,
                            w.clock,
                            w.vm.current_function()
                        )
                    })
                    .collect(),
            });
        };
        // Run worker i until it finishes, executes a special, or is
        // overtaken by its rival.
        loop {
            // Deterministic deadline: once the earliest ready worker's
            // clock is past the section's tick budget, the section has
            // overrun under *every* schedule of the model — report the
            // overrun instead of scheduling further work.
            if let Some(ms) = cfg.deadline_ms {
                if workers[i].clock.saturating_sub(start) > ms.saturating_mul(TICKS_PER_MS) {
                    return Err(ExecError::DeadlineExceeded {
                        section: plan.section,
                        deadline_ms: ms,
                    });
                }
            }
            let site = obs.retires.as_ref().and_then(|_| workers[i].vm.site());
            let step = workers[i]
                .vm
                .step(globals)
                .map_err(|e| ExecError::WorkerFailed {
                    stage: plan.workers[i].func.clone(),
                    cause: e.to_string(),
                })?;
            let repick = match step {
                StepOutcome::Ran { cost } => {
                    workers[i].clock += cost * cm.inst;
                    obs.retire(ctx.bc, site, cost);
                    false
                }
                StepOutcome::Finished(_) => {
                    workers[i].status = WStatus::Done;
                    true
                }
                StepOutcome::Special(p) => {
                    handle_special(
                        ctx,
                        &mut sec,
                        world,
                        plan,
                        &mut workers,
                        i,
                        &p,
                        &mut obs.log,
                    )?;
                    true
                }
            };
            if obs.log.on {
                for ev in workers[i].vm.drain_call_events() {
                    obs.log.record(i, workers[i].clock, ev.into());
                }
            }
            if repick || !still_first(workers[i].clock, i, rival) {
                break;
            }
        }
    }

    // Delta coalesce: fold the per-worker buffers into the world in
    // worker-index order (then slot-name order inside each buffer). The
    // DES has no panic containment, so an injected poison surfaces as the
    // same structured error the thread executor's containment produces.
    let mut delta = DeltaSnapshot::default();
    for buf in sec.delta_bufs.drain(..) {
        delta.lock_elisions += buf.lock_elisions;
        if buf.is_empty() {
            continue;
        }
        if injector.delta_poison_now() {
            return Err(ExecError::WorkerFailed {
                stage: "__delta_coalesce".into(),
                cause: DELTA_POISON_MSG.into(),
            });
        }
        delta.coalesces += 1;
        delta.applies += buf.applies;
        let mut buf_slots = 0u64;
        for (slot, d) in buf.drain() {
            buf_slots += 1;
            let spec = registry
                .merge_of(&slot)
                .expect("delta-routed slot has a merge spec");
            delta.merged_slots += 1;
            match world.take_boxed(&slot) {
                Some(mut base) => {
                    spec.apply(base.as_mut(), d);
                    world.install_boxed(slot, base);
                }
                None => world.install_boxed(slot, d),
            }
        }
        if ctx.cfg.metrics {
            obs.proj.metrics.observe("delta.merge_slots", buf_slots);
        }
    }

    let end = workers
        .iter()
        .map(|w| w.clock)
        .max()
        .unwrap_or(start)
        .max(start)
        + cm.par_spawn;
    let meta = if obs.log.on {
        for (k, w) in workers.iter().enumerate() {
            let exit = EventKind::WorkerExit { spawned: spawn_t };
            obs.log.record(k, w.clock, exit);
        }
        let meta = SectionMeta {
            section: ord,
            stage_desc: plan.stage_desc.clone(),
            worker_stage: plan.workers.iter().map(|w| w.stage).collect(),
            locks: plan.locks.iter().map(|l| l.set.clone()).collect(),
            queues: plan.queues.iter().map(|q| (q.id, q.what.clone())).collect(),
            // The DES has no SPSC rings: empty-pop counts stand in for
            // empty spins, the full side has no modeled counter.
            queue_spins: sec.queues.iter().map(|q| (0, q.empty_pops)).collect(),
            span: (start, end),
        };
        obs.proj.section(&meta, &ctx.channel_names, obs.log.take());
        Some(meta)
    } else {
        None
    };
    let stats = SimStats {
        lock_contention: plan
            .locks
            .iter()
            .zip(&sec.locks)
            .map(|(spec, l)| (spec.set.clone(), l.contention_ratio()))
            .collect(),
        tm_commits: sec.tm.commits,
        tm_aborts: sec.tm.aborts,
        tm_fallbacks: sec.tm.fallbacks,
        queue_pushes: sec.queues.iter().map(|q| q.pushes).sum(),
        queue_stalls: sec.queues.iter().map(|q| q.empty_pops).sum(),
        fault: FaultStats::default(),
        watchdog: sec.watchdog.map(|wd| wd.report()).unwrap_or_default(),
        delta,
    };
    Ok((end, stats, meta))
}

#[allow(clippy::too_many_arguments)]
fn handle_special(
    ctx: &RunCtx<'_>,
    sec: &mut SectionState,
    world: &mut World,
    plan: &ParallelPlan,
    workers: &mut [Worker<'_>],
    i: usize,
    p: &PendingSpecial,
    log: &mut EventLog,
) -> Result<(), ExecError> {
    let (cm, cfg, injector) = (ctx.cm, ctx.cfg, ctx.injector);
    let d = ctx.decoded(p);
    // A stalled worker pauses at its synchronization events; a slow
    // worker pays its drag at every one of them.
    let stall =
        injector.worker_stall(plan.workers[i].tid) + injector.slow_worker(plan.workers[i].tid);
    workers[i].clock += stall;
    match d.op {
        SpecialOp::LockAcquire => {
            let l = p.args[0].as_int() as usize;
            if sec.elided.get(l).copied().unwrap_or(false) {
                // Delta privatization covers everything this lock guards:
                // grant immediately with no lock state touched.
                if let Some(buf) = sec.delta_bufs.get_mut(i) {
                    buf.lock_elisions += 1;
                }
                workers[i].vm.resolve_special(Value::Int(0));
                return Ok(());
            }
            let t = workers[i].clock;
            let was_blocked = workers[i].lock_retry;
            if let Some(wd) = &sec.watchdog {
                wd.acquiring(i, l);
            }
            match sec.locks[l].try_acquire(t, was_blocked, cm) {
                AcquireOutcome::Granted(grant) => {
                    if was_blocked {
                        sec.locks[l].pending = sec.locks[l].pending.saturating_sub(1);
                        workers[i].lock_retry = false;
                    }
                    if let Some(wd) = &sec.watchdog {
                        wd.acquired(i, l);
                    }
                    workers[i].clock = grant + injector.lock_grant_delay();
                    if log.on {
                        let acquire = EventKind::LockAcquire {
                            rank: l,
                            attempt: t,
                            granted: grant,
                        };
                        log.record(i, workers[i].clock, acquire);
                    }
                    workers[i].vm.resolve_special(Value::Int(0));
                }
                AcquireOutcome::Held => {
                    if !was_blocked {
                        sec.locks[l].pending += 1;
                        workers[i].lock_retry = true;
                        if log.on {
                            log.record(i, t, EventKind::Block);
                        }
                    }
                    workers[i].vm.retry_special_later();
                    workers[i].status = WStatus::BlockedLock(l);
                }
            }
        }
        SpecialOp::LockRelease => {
            let l = p.args[0].as_int() as usize;
            if sec.elided.get(l).copied().unwrap_or(false) {
                workers[i].vm.resolve_special(Value::Int(0));
                return Ok(());
            }
            let t = workers[i].clock;
            workers[i].clock = sec.locks[l].release(t, cm);
            if let Some(wd) = &sec.watchdog {
                wd.released(i, l);
            }
            if log.on {
                let release = EventKind::LockRelease { rank: l, held: t };
                log.record(i, workers[i].clock, release);
            }
            workers[i].vm.resolve_special(Value::Int(0));
            // Wake the blocked requesters; the scheduler grants in clock
            // order, the rest re-block.
            for w in workers.iter_mut() {
                if w.status == WStatus::BlockedLock(l) {
                    w.status = WStatus::Ready;
                }
            }
        }
        SpecialOp::QueuePush => {
            let q = sec.qidx(&p.args)?;
            let bits = p.args[1].to_bits();
            workers[i].clock += injector.queue_stall_delay();
            let attempt = workers[i].clock;
            match sec.queues[q].push(workers[i].clock, bits, cm) {
                PushOutcome::Pushed(t) => {
                    workers[i].clock = t;
                    if log.on {
                        let push = EventKind::QueuePush {
                            queue: p.args[0].as_int(),
                            attempt,
                            occupancy: sec.queues[q].len() as u64,
                        };
                        log.record(i, t, push);
                    }
                    workers[i].vm.resolve_special(Value::Int(0));
                    // Wake a consumer blocked on this queue.
                    for w in workers.iter_mut() {
                        if w.status == WStatus::BlockedPop(q) {
                            w.status = WStatus::Ready;
                        }
                    }
                }
                PushOutcome::Full => {
                    if log.on {
                        log.record(i, attempt, EventKind::Block);
                    }
                    workers[i].vm.retry_special_later();
                    workers[i].status = WStatus::BlockedPush(q);
                }
            }
        }
        SpecialOp::QueuePop { float } => {
            let q = sec.qidx(&p.args)?;
            workers[i].clock += injector.queue_stall_delay();
            let attempt = workers[i].clock;
            match sec.queues[q].pop(workers[i].clock, cm) {
                PopOutcome::Popped(bits, t) => {
                    workers[i].clock = t;
                    if log.on {
                        let pop = EventKind::QueuePop {
                            queue: p.args[0].as_int(),
                            attempt,
                            occupancy: sec.queues[q].len() as u64,
                        };
                        log.record(i, t, pop);
                    }
                    workers[i].vm.resolve_special(Value::from_bits(bits, float));
                    for w in workers.iter_mut() {
                        if w.status == WStatus::BlockedPush(q) {
                            w.status = WStatus::Ready;
                        }
                    }
                }
                PopOutcome::Empty => {
                    if log.on {
                        log.record(i, attempt, EventKind::Block);
                    }
                    workers[i].vm.retry_special_later();
                    workers[i].status = WStatus::BlockedPop(q);
                }
            }
        }
        SpecialOp::TxBegin => {
            let t = workers[i].clock;
            workers[i].clock = t + cm.tx_begin;
            workers[i].tx = Some(sec.tm.begin(t, cm));
            workers[i].tx_aborts = 0;
            if log.on {
                log.record(i, t, EventKind::TxBegin);
            }
            workers[i].vm.resolve_special(Value::Int(0));
        }
        SpecialOp::TxCommit => {
            let mut tx = workers[i]
                .tx
                .take()
                .ok_or(ExecError::TxCommitWithoutBegin)?;
            loop {
                let t = workers[i].clock;
                // A starving transaction escalates to the modeled rank-0
                // global lock: pessimistic but guaranteed to commit.
                if workers[i].tx_aborts > u64::from(cfg.backoff.max_aborts) {
                    workers[i].clock = sec.tm.commit_pessimistic(&tx, t, cm);
                    break;
                }
                let outcome = if injector.force_stm_abort() {
                    Err(sec.tm.forced_abort(&tx, t, cm))
                } else {
                    sec.tm.commit(&tx, t, cm)
                };
                match outcome {
                    Ok(done) => {
                        workers[i].clock = done;
                        break;
                    }
                    Err(wasted) => {
                        workers[i].tx_aborts += 1;
                        // Back off (modeled as spin cycles), then redo the
                        // transaction's work after the wasted time.
                        let backoff =
                            u64::from(cfg.backoff.base_spins) << workers[i].tx_aborts.min(8);
                        workers[i].clock = t + wasted + backoff + tx.work;
                        tx.start = workers[i].clock;
                    }
                }
            }
            if log.on {
                let commit = EventKind::TxCommit {
                    aborts: workers[i].tx_aborts,
                };
                log.record(i, workers[i].clock, commit);
            }
            workers[i].tx_aborts = 0;
            workers[i].vm.resolve_special(Value::Int(0));
        }
        SpecialOp::ParInvoke => return Err(ExecError::NestedParallelSection),
        SpecialOp::World => {
            // Ordinary world intrinsic: readers wait for in-flight writers
            // of their channels, and the execution holds its write channels
            // for its duration (the internally-thread-safe world).
            let base = d.sig.base_cost;
            // Delta fast path: a merge-covered call runs against the
            // worker-private buffer with no channel serialization — the
            // whole cost overlaps across cores.
            if !sec.delta_bufs.is_empty() && d.bound {
                if let Some(slots) = ctx.registry.delta_route(d.name, &p.args) {
                    let out = sec.delta_bufs[i].apply(ctx.registry, d.name, &p.args, &slots);
                    let done = workers[i].clock + base + out.extra_cost;
                    if log.on {
                        let call = EventKind::WorldCall {
                            intrinsic: d.name.to_string(),
                            args: p.args.clone(),
                            start: workers[i].clock,
                            channel_waits: Vec::new(),
                        };
                        log.record(i, done, call);
                    }
                    workers[i].clock = done;
                    workers[i].vm.resolve_special(out.value);
                    return Ok(());
                }
            }
            let out = d.call(world, &p.args);
            let cost = base + out.extra_cost;
            // Private compute overlaps across cores; only the serialized
            // portion holds the intrinsic's write channels (readers wait
            // for in-flight writers). Instance-partitioned channels hold
            // per-instance state and never serialize across workers
            // (each instance is its own cache lines), so `shared` leaves
            // them out.
            let ser = out.serialized_cost.unwrap_or(cost).min(cost);
            let par = cost - ser;
            let base_start = workers[i].clock + par;
            let start = d
                .shared
                .iter()
                .map(|&c| sec.channel_free[c])
                .fold(base_start, u64::max);
            let done = start + ser;
            if log.on {
                // Per-channel contention attribution: how long each
                // serialized channel alone would have delayed this call
                // past its ready point (passive — `start` is settled).
                let channel_waits = d
                    .shared
                    .iter()
                    .map(|&c| (c, sec.channel_free[c].saturating_sub(base_start)))
                    .filter(|&(_, wait)| start > base_start && wait > 0)
                    .collect();
                let call = EventKind::WorldCall {
                    intrinsic: d.name.to_string(),
                    args: p.args.clone(),
                    start: workers[i].clock,
                    channel_waits,
                };
                log.record(i, done, call);
            }
            if ser > 0 {
                for &c in &d.shared_writes {
                    sec.channel_free[c] = done;
                }
            }
            workers[i].clock = done;
            if let Some(tx) = &mut workers[i].tx {
                let channels = &ctx.module.intrinsics.channels;
                tx.work += cost;
                for c in &d.sig.reads {
                    tx.reads.insert(channels.name(*c).to_string());
                }
                for c in &d.sig.writes {
                    tx.writes.insert(channels.name(*c).to_string());
                }
            }
            workers[i].vm.resolve_special(out.value);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use commset_analysis::depanalysis::analyze_commutativity;
    use commset_analysis::effects::summarize;
    use commset_analysis::hotloop::find_hot_loop;
    use commset_analysis::metadata::manage;
    use commset_analysis::pdg::Pdg;
    use commset_analysis::scc::dag_scc;
    use commset_ir::{lower_program, IntrinsicTable};
    use commset_lang::ast::Type;
    use commset_runtime::intrinsics::IntrinsicOutcome;
    use commset_runtime::FaultPlan;
    use commset_telemetry::TraceEvent;
    use commset_transform::{doall, dswp};
    use std::collections::BTreeSet;

    fn table() -> IntrinsicTable {
        let mut t = IntrinsicTable::new();
        t.register("add_acc", vec![Type::Int], Type::Void, &[], &["ACC"], 20);
        t.register("emit", vec![Type::Int], Type::Void, &[], &["OUT"], 30);
        t.register("heavy", vec![Type::Int], Type::Int, &[], &[], 400);
        t
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register("add_acc", |world, args| {
            *world.get_mut::<i64>("acc") += args[0].as_int();
            IntrinsicOutcome::unit()
        });
        r.register("emit", |world, args| {
            world.get_mut::<Vec<i64>>("out").push(args[0].as_int());
            IntrinsicOutcome::unit()
        });
        r.register("heavy", |_, args| {
            IntrinsicOutcome::value(args[0].as_int() * 2)
        });
        r
    }

    /// Heavy pure compute per iteration plus a small commutative update to
    /// shared state — the shape every scalable workload has.
    const DOALL_SRC: &str = r#"
        extern int heavy(int x);
        extern void add_acc(int v);
        int main() {
            int n = 64;
            for (int i = 0; i < n; i = i + 1) {
                int w = heavy(i);
                #pragma CommSet(SELF)
                { add_acc(i); }
            }
            return 0;
        }
    "#;

    fn compile_doall(nthreads: usize, sync: SyncMode) -> (Module, ParallelPlan) {
        let table = table();
        let unit = commset_lang::compile_unit(DOALL_SRC).unwrap();
        let managed = manage(unit).unwrap();
        let summaries = summarize(&managed.program, &table);
        let hot = find_hot_loop(&managed, &summaries, &table, "main").unwrap();
        let mut pdg = Pdg::build(&hot);
        analyze_commutativity(&mut pdg, &managed, &hot);
        let pp = doall::apply_doall(
            &managed,
            &hot,
            &pdg,
            &summaries,
            &BTreeSet::new(),
            nthreads,
            sync,
            0,
        )
        .unwrap();
        let module = lower_program(&pp.program, table).unwrap();
        (module, pp.plan)
    }

    #[test]
    fn doall_produces_correct_sum_and_speedup() {
        // Sequential baseline.
        let table = table();
        let unit = commset_lang::compile_unit(DOALL_SRC).unwrap();
        let managed = manage(unit).unwrap();
        let seq_module = lower_program(&managed.program, table).unwrap();
        let mut world = World::new();
        world.install("acc", 0i64);
        let cm = CostModel::default();
        let seq =
            crate::seq::run_sequential(&seq_module, &registry(), &mut world, &cm, "main").unwrap();
        assert_eq!(*world.get::<i64>("acc"), (0..64).sum::<i64>());
        // Parallel on 4 virtual cores.
        let (module, plan) = compile_doall(4, SyncMode::Spin);
        let mut world4 = World::new();
        world4.install("acc", 0i64);
        let par = run_simulated(&module, &registry(), &[plan], &mut world4, &cm).unwrap();
        assert_eq!(*world4.get::<i64>("acc"), (0..64).sum::<i64>());
        let speedup = seq.sim_time as f64 / par.sim_time as f64;
        assert!(
            speedup > 2.0,
            "DOALL x4 should speed up ~4x, got {speedup:.2} (seq={} par={})",
            seq.sim_time,
            par.sim_time
        );
        assert!(par.stats.watchdog.is_clean(), "{:?}", par.stats.watchdog);
        let _ = par.result;
    }

    #[test]
    fn doall_is_deterministic() {
        let cm = CostModel::default();
        let (module, plan) = compile_doall(3, SyncMode::Mutex);
        let run = || {
            let mut world = World::new();
            world.install("acc", 0i64);
            let out = run_simulated(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
            )
            .unwrap();
            (out.sim_time, *world.get::<i64>("acc"))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn missing_plan_is_an_unknown_section_error() {
        let cm = CostModel::default();
        let (module, plan) = compile_doall(2, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let err = run_simulated(&module, &registry(), &[], &mut world, &cm).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnknownSection {
                section: plan.section
            }
        );
    }

    #[test]
    fn abort_storm_drives_fallbacks_yet_preserves_output() {
        let cm = CostModel::default();
        let (module, plan) = compile_doall(4, SyncMode::Tm);
        let run = |cfg: &ExecConfig| {
            let mut world = World::new();
            world.install("acc", 0i64);
            let out = run_simulated_with(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
                cfg,
            )
            .unwrap();
            (*world.get::<i64>("acc"), out.stats)
        };
        let (quiet_acc, quiet) = run(&ExecConfig::default());
        assert_eq!(quiet_acc, (0..64).sum::<i64>());
        assert_eq!(quiet.fault.stm_aborts, 0, "no faults without a plan");
        assert_eq!(quiet.tm_fallbacks, 0, "no starvation without a storm");
        // Every commit attempt is forced to abort: only the rank-0
        // fallback lets transactions through, and the answer still holds.
        let mut cfg = ExecConfig::with_fault(FaultPlan {
            stm_abort_every: 1,
            ..FaultPlan::abort_storm(11)
        });
        cfg.backoff.max_aborts = 3;
        let (storm_acc, storm) = run(&cfg);
        assert_eq!(storm_acc, quiet_acc);
        assert!(storm.fault.stm_aborts > 0, "{:?}", storm.fault);
        assert!(storm.tm_fallbacks > 0, "{storm:?}");
        assert!(storm.watchdog.is_clean(), "{:?}", storm.watchdog);
    }

    #[test]
    fn lock_delay_and_stall_preserve_output_and_determinism() {
        let cm = CostModel::default();
        let (module, plan) = compile_doall(3, SyncMode::Mutex);
        let run = |cfg: &ExecConfig| {
            let mut world = World::new();
            world.install("acc", 0i64);
            let out = run_simulated_with(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
                cfg,
            )
            .unwrap();
            (*world.get::<i64>("acc"), out.sim_time, out.stats.fault)
        };
        for fault in [
            FaultPlan::lock_delay(5, 800),
            FaultPlan::worker_stall(5, 1, 1200),
        ] {
            let cfg = ExecConfig::with_fault(fault);
            let (acc, time, stats) = run(&cfg);
            assert_eq!(acc, (0..64).sum::<i64>());
            assert_eq!(
                run(&cfg),
                (acc, time, stats),
                "fault runs are deterministic"
            );
            assert!(stats.lock_delays + stats.stalls > 0, "{stats:?}");
        }
    }

    #[test]
    fn trace_records_regions_locks_and_world_calls_deterministically() {
        let cm = CostModel::default();
        let (module, plan) = compile_doall(2, SyncMode::Spin);
        let run = || {
            let cfg = ExecConfig {
                telemetry: true,
                ..ExecConfig::default()
            };
            let mut world = World::new();
            world.install("acc", 0i64);
            run_simulated_with(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
                &cfg,
            )
            .unwrap()
            .telemetry
            .expect("telemetry on")
            .trace
        };
        let recs = run();
        let enters = recs
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RegionEnter { .. }))
            .count();
        let exits = recs
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RegionExit { .. }))
            .count();
        assert_eq!(enters, 64, "one region instance per iteration");
        assert_eq!(exits, 64);
        assert!(
            recs.iter()
                .any(|r| matches!(r.event, TraceEvent::LockAcquire { .. })),
            "spin mode rank locks must appear"
        );
        assert!(recs.iter().any(
            |r| matches!(&r.event, TraceEvent::WorldCall { intrinsic, .. } if intrinsic == "add_acc")
        ));
        // Region enters carry the instance arguments.
        let args: Vec<i64> = recs
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::RegionEnter { args, .. } => Some(args[0].as_int()),
                _ => None,
            })
            .collect();
        let mut sorted = args.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<i64>>());
        // The DES trace is fully deterministic.
        assert_eq!(recs, run());
    }

    const PIPE_SRC: &str = r#"
        extern int heavy(int x);
        extern void emit(int y);
        int main() {
            int n = 40;
            for (int i = 0; i < n; i = i + 1) {
                int y = heavy(i);
                emit(y);
            }
            return 0;
        }
    "#;

    fn compile_pipeline(nthreads: usize) -> (Module, ParallelPlan) {
        let table = table();
        let unit = commset_lang::compile_unit(PIPE_SRC).unwrap();
        let managed = manage(unit).unwrap();
        let summaries = summarize(&managed.program, &table);
        let hot = find_hot_loop(&managed, &summaries, &table, "main").unwrap();
        let mut pdg = Pdg::build(&hot);
        analyze_commutativity(&mut pdg, &managed, &hot);
        let dag = dag_scc(&pdg);
        let pp = dswp::apply_ps_dswp(
            &managed,
            &hot,
            &pdg,
            &dag,
            &summaries,
            &["OUT".to_string()].into(),
            nthreads,
            SyncMode::Lib,
            0,
        )
        .unwrap();
        let module = lower_program(&pp.program, table).unwrap();
        (module, pp.plan)
    }

    #[test]
    fn ps_dswp_preserves_output_order() {
        let (module, plan) = compile_pipeline(5);
        let mut world = World::new();
        world.install("out", Vec::<i64>::new());
        let cm = CostModel::default();
        let out = run_simulated(&module, &registry(), &[plan], &mut world, &cm).unwrap();
        let produced = world.get::<Vec<i64>>("out");
        let expected: Vec<i64> = (0..40).map(|i| i * 2).collect();
        assert_eq!(
            produced, &expected,
            "sequential output stage preserves order"
        );
        assert!(out.stats.queue_pushes > 0);
    }

    #[test]
    fn telemetry_is_deterministic_and_does_not_perturb_the_model() {
        let cm = CostModel::default();
        let (module, plan) = compile_pipeline(4);
        let run = |telemetry: bool| {
            let mut world = World::new();
            world.install("out", Vec::<i64>::new());
            let cfg = ExecConfig {
                telemetry,
                ..ExecConfig::default()
            };
            run_simulated_with(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
                &cfg,
            )
            .unwrap()
        };
        let off = run(false);
        assert!(off.telemetry.is_none(), "telemetry must be opt-in");
        let on = run(true);
        assert_eq!(
            on.sim_time, off.sim_time,
            "telemetry must not change simulated time"
        );
        let report = on.telemetry.unwrap();
        assert_eq!(report.sections.len(), 1);
        let s = &report.sections[0];
        assert!(s.stages.len() >= 2, "pipeline has >= 2 stages: {s:?}");
        assert!(s.queues.iter().any(|q| q.pushes > 0), "{:?}", s.queues);
        assert!(s.workers.iter().any(|w| w.blocked > 0 || w.idle > 0));
        // Tick-based reports are bit-identical across runs.
        let again = run(true).telemetry.unwrap();
        assert_eq!(report.render_text(), again.render_text());
        assert_eq!(
            commset_telemetry::chrome_trace_json(&report),
            commset_telemetry::chrome_trace_json(&again)
        );
    }

    #[test]
    fn metrics_and_journal_do_not_perturb_the_sim_clock() {
        let cm = CostModel::default();
        let (module, plan) = compile_pipeline(4);
        let run = |metrics: bool, journal: Option<commset_telemetry::Journal>| {
            let mut world = World::new();
            world.install("out", Vec::<i64>::new());
            let cfg = ExecConfig {
                metrics,
                journal,
                ..ExecConfig::default()
            };
            run_simulated_with(
                &module,
                &registry(),
                std::slice::from_ref(&plan),
                &mut world,
                &cm,
                &cfg,
            )
            .unwrap()
        };
        let off = run(false, None);
        assert!(off.metrics.is_none(), "metrics must be opt-in");
        let j = commset_telemetry::Journal::new(7);
        let on = run(true, Some(j.clone()));
        assert_eq!(
            on.sim_time, off.sim_time,
            "metrics + journal must not change simulated time"
        );
        let reg = on.metrics.expect("metrics were enabled");
        assert!(!reg.opcodes().is_empty(), "opcode retires recorded");
        assert!(
            reg.blocks().keys().all(|b| b.contains(":bb")),
            "hot blocks carry func:bbN names: {:?}",
            reg.blocks().keys().collect::<Vec<_>>()
        );
        assert!(
            reg.hists()
                .keys()
                .any(|k| k.starts_with("queue_occupancy.")),
            "pipeline queues recorded occupancy: {:?}",
            reg.hists().keys().collect::<Vec<_>>()
        );
        let jsonl = j.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"section_start\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"section_end\""));
        assert!(jsonl.contains("\"kind\":\"metrics\""));
        // The registry is fully deterministic across runs.
        let again = run(true, None);
        assert_eq!(reg, again.metrics.unwrap());
    }

    #[test]
    fn queue_pushback_preserves_pipeline_order() {
        let (module, plan) = compile_pipeline(4);
        let cm = CostModel::default();
        let mut world = World::new();
        world.install("out", Vec::<i64>::new());
        let cfg = ExecConfig::with_fault(FaultPlan::queue_pushback(3));
        let out = run_simulated_with(&module, &registry(), &[plan], &mut world, &cm, &cfg).unwrap();
        let expected: Vec<i64> = (0..40).map(|i| i * 2).collect();
        assert_eq!(world.get::<Vec<i64>>("out"), &expected);
        // Capacity-1 queues force the producer into the full-queue path.
        assert!(out.stats.queue_pushes >= 40);
        assert!(out.stats.watchdog.is_clean());
    }

    #[test]
    fn pick_takes_the_min_clock_ready_worker() {
        let ready = |v: &[(usize, u64)]| pick(v.iter().copied());
        // Clocks 50, 10, 30: worker 1 runs, worker 2 is its rival.
        assert_eq!(
            ready(&[(0, 50), (1, 10), (2, 30)]),
            Some((1, Some((30, 2))))
        );
        // Worker 1 blocked: worker 2 runs, worker 0 is its rival.
        assert_eq!(ready(&[(0, 50), (2, 30)]), Some((2, Some((50, 0)))));
        assert_eq!(ready(&[(2, 30)]), Some((2, None)));
        assert_eq!(ready(&[]), None);
    }

    #[test]
    fn ties_go_to_the_lower_index_and_a_tying_runner_yields() {
        // Equal clocks: the lowest index runs, the next one is its rival.
        let (i, rival) = pick([(0, 5), (1, 5), (2, 5)].into_iter()).unwrap();
        assert_eq!((i, rival), (0, Some((5, 1))));
        // Worker 0 keeps running through the tie at 5 (it is the lower
        // index) and is overtaken only once its clock passes 5.
        assert!(still_first(5, 0, rival));
        assert!(!still_first(6, 0, rival));
        // A running worker that reaches the clock of a lower-indexed
        // rival yields to it, exactly as a fresh pick would.
        let (i, rival) = pick([(0, 9), (1, 4)].into_iter()).unwrap();
        assert_eq!((i, rival), (1, Some((9, 0))));
        assert!(still_first(8, 1, rival));
        assert!(!still_first(9, 1, rival));
        assert_eq!(pick([(0, 9), (1, 9)].into_iter()).unwrap().0, 0);
        // Alone, a worker is never overtaken.
        assert!(still_first(u64::MAX, 3, None));
    }
}
