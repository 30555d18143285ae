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
//! Runtime specials mean what [`substrate::special`] says; this executor
//! supplies the DES [`Substrate`]: the contention models, channel
//! serialization and the virtual clocks, and it parks a waiting worker
//! until a release, push or pop wakes it. Intrinsics are decoded once per
//! run ([`SpecialOp`] plus the pre-resolved world handler and channel
//! footprint of every intrinsic), so no name is compared or hashed per
//! call.
//!
//! Robustness: every dynamic error and contract violation surfaces as an
//! [`ExecError`] (no panics); [`run_simulated_with`] additionally injects
//! an adversarial [`FaultPlan`](commset_runtime::FaultPlan) schedule and
//! runs the waits-for watchdog, whose report lands in [`SimStats`].

use crate::bytecode::{BcModule, BcVm};
use crate::config::ExecConfig;
use crate::error::ExecError;
use crate::globals::PlainGlobals;
use crate::special::SpecialOp;
use crate::substrate::{
    self, Call, ChannelWaits, Moved, Observed, Park, Prim, Section, Step, Substrate,
};
use crate::vm::StepOutcome;
use commset_ir::{ChannelId, EffectSig, Module};
use commset_runtime::intrinsics::Handler;
use commset_runtime::{
    DeltaSnapshot, FaultInjector, FaultStats, IntrinsicOutcome, Registry, Value, WatchdogReport,
    World,
};
use commset_sim::tm::TxRecord;
use commset_sim::{CostModel, PopOutcome, PushOutcome, SimLock, SimLockKind, SimQueue, TmModel};
use commset_telemetry::{
    ClockUnit, EventKind, EventLog, JournalEvent, MetricsRegistry, RunCounters, RunReport,
};
use commset_transform::{ParallelPlan, SyncMode};

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
    /// Delta-privatized activity (all zero unless
    /// [`WorldMode::Deltas`](crate::WorldMode::Deltas) routed calls into
    /// per-worker buffers).
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

/// Deadline conversion for the DES: [`ExecConfig::deadline_ms`] becomes a
/// deterministic tick budget (1 ms = 1000 ticks, matching the thread
/// executor's microsecond-denominated injection costs).
const TICKS_PER_MS: u64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum WStatus {
    Ready,
    Parked(Park),
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
    // The DES is single-threaded: one local accumulator takes every
    // retired op.
    let mut obs = Observed::new(ClockUnit::Ticks, cfg);
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
                let d = &ctx.intrinsics[p.intrinsic.0 as usize];
                if d.op == SpecialOp::ParInvoke {
                    let ord = next_ord;
                    next_ord += 1;
                    let plan = substrate::open_section(plans, &p.args, cfg, ord, sim_time)?;
                    let (end, section_stats) =
                        run_section(&ctx, plan, world, &mut globals, sim_time, ord, &mut obs)?;
                    substrate::close_section(cfg, ord, end);
                    sim_time = end;
                    merge_stats(&mut stats, section_stats);
                    vm.resolve_special(Value::Int(0));
                } else {
                    let out = d.call(world, &p.args);
                    sim_time += d.sig.base_cost + out.extra_cost;
                    vm.resolve_special(out.value);
                }
            }
            StepOutcome::Finished(result) => {
                stats.fault = injector.stats();
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
                let pushes = Some(stats.queue_pushes);
                let (telemetry, metrics) = obs.finish(module, &bc, cfg, counters, sim_time, pushes);
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
    into.watchdog.absorb(from.watchdog);
}

struct Worker<'m> {
    vm: BcVm<'m>,
    clock: u64,
    status: WStatus,
    tx: Option<TxRecord>,
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

/// The contention models of one parallel section.
struct Models {
    locks: Vec<SimLock>,
    queues: Vec<SimQueue>,
    tm: TmModel,
    /// Channel id -> tick at which its in-flight writer finishes.
    channel_free: Vec<u64>,
}

/// The DES substrate of one special: the section's models, with every
/// worker's clock and status in reach for wakes.
struct Des<'s, 'm> {
    ctx: &'s RunCtx<'m>,
    models: &'s mut Models,
    workers: &'s mut [Worker<'m>],
    world: &'s mut World,
    /// Events are recorded: world calls attribute channel waits.
    observe: bool,
}

impl Des<'_, '_> {
    /// Readies every worker parked on `park`; the scheduler serves them
    /// in clock order and the losers park again.
    fn wake(&mut self, park: Park) {
        for wk in self.workers.iter_mut() {
            if wk.status == WStatus::Parked(park) {
                wk.status = WStatus::Ready;
            }
        }
    }

    /// Settles a queue attempt of worker `w` on queue `q` made at
    /// `attempt`. A refused one starts a wait. A completed one — `(bits,
    /// end)` — moves the clock to its end and wakes the workers parked on
    /// `wake`.
    fn moved(
        &mut self,
        w: usize,
        q: usize,
        attempt: u64,
        done: Option<(u64, u64)>,
        wake: Park,
    ) -> Prim<Moved> {
        let Some((bits, end)) = done else {
            return Prim::wait(Some(attempt));
        };
        self.workers[w].clock = end;
        self.wake(wake);
        let occupancy = self.models.queues[q].len() as u64;
        Prim::done(Moved {
            attempt,
            occupancy,
            bits,
        })
    }
}

impl Substrate for Des<'_, '_> {
    fn now(&self, w: usize) -> u64 {
        self.workers[w].clock
    }

    fn delay(&mut self, w: usize, t: u64) {
        self.workers[w].clock += t;
    }

    fn lock(&mut self, w: usize, rank: usize) -> Result<Prim<u64>, ExecError> {
        let wk = &mut self.workers[w];
        let (t, retry) = (wk.clock, wk.lock_retry);
        Ok(
            match self.models.locks[rank].request(t, &mut wk.lock_retry, self.ctx.cm) {
                Some(granted) => {
                    wk.clock = granted;
                    Prim::done(granted)
                }
                // A refused retry is still the first refusal's wait.
                None => Prim::wait((!retry).then_some(t)),
            },
        )
    }

    fn unlock(&mut self, w: usize, rank: usize) -> u64 {
        let t = self.workers[w].clock;
        self.workers[w].clock = self.models.locks[rank].release(t, self.ctx.cm);
        self.wake(Park::Lock(rank));
        t
    }

    fn push(&mut self, w: usize, q: usize, bits: u64) -> Result<Prim<Moved>, ExecError> {
        let t = self.workers[w].clock;
        let done = match self.models.queues[q].push(t, bits, self.ctx.cm) {
            PushOutcome::Pushed(end) => Some((bits, end)),
            PushOutcome::Full => None,
        };
        Ok(self.moved(w, q, t, done, Park::Pop(q)))
    }

    fn pop(&mut self, w: usize, q: usize) -> Result<Prim<Moved>, ExecError> {
        let t = self.workers[w].clock;
        let done = match self.models.queues[q].pop(t, self.ctx.cm) {
            PopOutcome::Popped(bits, end) => Some((bits, end)),
            PopOutcome::Empty => None,
        };
        Ok(self.moved(w, q, t, done, Park::Push(q)))
    }

    fn tx_begin(&mut self, w: usize) -> Result<u64, ExecError> {
        let cm = self.ctx.cm;
        let wk = &mut self.workers[w];
        let t = wk.clock;
        wk.clock = t + cm.tx_begin;
        wk.tx = Some(self.models.tm.begin(t, cm));
        Ok(t)
    }

    fn tx_commit(&mut self, w: usize) -> u64 {
        let (cfg, injector) = (self.ctx.cfg, self.ctx.injector);
        let wk = &mut self.workers[w];
        // The semantics commits only a transaction it opened.
        let Some(tx) = wk.tx.take() else {
            return 0;
        };
        let backoff = (
            u64::from(cfg.backoff.max_aborts),
            u64::from(cfg.backoff.base_spins),
        );
        let (done, aborts) =
            (self.models.tm).commit_retrying(tx, wk.clock, self.ctx.cm, backoff, || {
                injector.force_stm_abort()
            });
        wk.clock = done;
        aborts
    }

    fn world(&mut self, w: usize, call: Call<'_>) -> Option<(Value, ChannelWaits)> {
        // Readers wait for in-flight writers of their channels, and the
        // execution holds its write channels for its duration (the
        // internally-thread-safe world).
        let d = &self.ctx.intrinsics[call.id];
        let (channel_free, wk) = (&mut self.models.channel_free, &mut self.workers[w]);
        let out = d.call(self.world, call.args);
        let cost = d.sig.base_cost + out.extra_cost;
        // Private compute overlaps across cores; only the serialized
        // portion holds the intrinsic's write channels (readers wait for
        // in-flight writers). Instance-partitioned channels hold
        // per-instance state and never serialize across workers (each
        // instance is its own cache lines), so `shared` leaves them out.
        let ser = out.serialized_cost.unwrap_or(cost).min(cost);
        let base_start = wk.clock + cost - ser;
        let start = d
            .shared
            .iter()
            .map(|&c| channel_free[c])
            .fold(base_start, u64::max);
        let done = start + ser;
        // Per-channel contention attribution: how long each serialized
        // channel alone would have delayed this call past its ready point
        // (passive — `start` is settled).
        let channel_waits = if self.observe && start > base_start {
            d.shared
                .iter()
                .map(|&c| (c, channel_free[c].saturating_sub(base_start)))
                .filter(|&(_, wait)| wait > 0)
                .collect()
        } else {
            Vec::new()
        };
        if ser > 0 {
            for &c in &d.shared_writes {
                channel_free[c] = done;
            }
        }
        wk.clock = done;
        if let Some(tx) = &mut wk.tx {
            let channels = &self.ctx.module.intrinsics.channels;
            tx.work += cost;
            for c in &d.sig.reads {
                tx.reads.insert(channels.name(*c).to_string());
            }
            for c in &d.sig.writes {
                tx.writes.insert(channels.name(*c).to_string());
            }
        }
        Some((out.value, channel_waits))
    }

    fn private(&mut self, w: usize, call: Call<'_>, out: &IntrinsicOutcome) {
        // A merge-covered call runs against the worker-private buffer with
        // no channel serialization: its whole cost overlaps across cores.
        self.workers[w].clock += self.ctx.intrinsics[call.id].sig.base_cost + out.extra_cost;
    }
}

/// Executes one parallel section, the `ord`-th of the run, and projects
/// its events; returns its end time and stats.
fn run_section<'m>(
    ctx: &RunCtx<'m>,
    plan: &ParallelPlan,
    world: &mut World,
    globals: &mut PlainGlobals,
    start: u64,
    ord: usize,
    obs: &mut Observed,
) -> Result<(u64, SimStats), ExecError> {
    let (cm, cfg) = (ctx.cm, ctx.cfg);
    // Under delta privatization merge-covered calls take no channel
    // serialization at all (the modeled analogue of taking no shard
    // lock); the buffers fold back into the world in worker-index order
    // at the section end.
    let sec = Section::new(plan, ctx.registry, ctx.injector, cfg);
    // One event log serves every virtual worker of the section, in
    // emission order.
    let mut log = EventLog::new(cfg.telemetry || cfg.metrics);
    let lock_kind = match plan.sync {
        SyncMode::Spin => SimLockKind::Spin,
        _ => SimLockKind::Mutex,
    };
    let mut models = Models {
        locks: plan
            .locks
            .iter()
            .map(|_| {
                let mut l = SimLock::new(lock_kind);
                l.free_at = start;
                l
            })
            .collect(),
        queues: plan
            .queues
            .iter()
            .map(|q| SimQueue::new(ctx.injector.clamp_capacity(q.capacity)))
            .collect(),
        tm: TmModel::new(),
        // The virtual world is internally thread-safe (the paper's "Lib"
        // discipline): each intrinsic execution serializes on the
        // channels it writes, and readers wait for in-flight writers.
        // This is what makes I/O-channel saturation emerge at high
        // thread counts.
        channel_free: vec![0; ctx.module.intrinsics.channels.len()],
    };

    let spawn_t = start + cm.par_spawn;
    let mut workers: Vec<Worker<'m>> = Vec::with_capacity(plan.workers.len());
    let mut lanes = Vec::with_capacity(plan.workers.len());
    for (k, w) in plan.workers.iter().enumerate() {
        workers.push(Worker {
            vm: substrate::worker_vm(ctx.module, ctx.bc, w, cfg.telemetry)?,
            clock: spawn_t,
            status: WStatus::Ready,
            tx: None,
            lock_retry: false,
        });
        lanes.push(sec.lane(k, w.tid));
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
                    let d = &ctx.intrinsics[p.intrinsic.0 as usize];
                    let call = Call {
                        id: p.intrinsic.0 as usize,
                        name: d.name,
                        args: &p.args,
                    };
                    let mut des = Des {
                        ctx,
                        models: &mut models,
                        workers: &mut workers,
                        world: &mut *world,
                        observe: log.on,
                    };
                    match substrate::special(&sec, &mut des, &mut lanes[i], &mut log, d.op, call)? {
                        Step::Value(v) => workers[i].vm.resolve_special(v),
                        Step::Wait(park) => {
                            workers[i].vm.retry_special_later();
                            workers[i].status = WStatus::Parked(park);
                        }
                    }
                    true
                }
            };
            if log.on {
                for ev in workers[i].vm.drain_call_events() {
                    log.record(i, workers[i].clock, ev.into());
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
    let delta = substrate::coalesce(
        lanes.iter_mut().filter_map(|l| l.delta.take()),
        ctx.injector,
        cfg.metrics.then_some(&mut obs.proj.metrics),
        |buf| {
            let mut slots = 0;
            for (slot, d) in buf.drain() {
                slots += 1;
                let spec = ctx
                    .registry
                    .merge_of(&slot)
                    .expect("delta-routed slot has a merge spec");
                match world.take_boxed(&slot) {
                    Some(mut base) => {
                        spec.apply(base.as_mut(), d);
                        world.install_boxed(slot, base);
                    }
                    None => world.install_boxed(slot, d),
                }
            }
            slots
        },
    )?;

    let end = workers
        .iter()
        .map(|w| w.clock)
        .max()
        .unwrap_or(start)
        .max(start)
        + cm.par_spawn;
    if log.on {
        for (k, w) in workers.iter().enumerate() {
            let exit = EventKind::WorkerExit { spawned: spawn_t };
            log.record(k, w.clock, exit);
        }
        // The DES has no SPSC rings: empty-pop counts stand in for empty
        // spins, the full side has no modeled counter.
        let spins = models.queues.iter().map(|q| (0, q.empty_pops)).collect();
        obs.section(
            plan,
            ord,
            spins,
            (start, end),
            &ctx.channel_names,
            log.take(),
        );
    }
    let stats = SimStats {
        lock_contention: plan
            .locks
            .iter()
            .zip(&models.locks)
            .map(|(spec, l)| (spec.set.clone(), l.contention_ratio()))
            .collect(),
        tm_commits: models.tm.commits,
        tm_aborts: models.tm.aborts,
        tm_fallbacks: models.tm.fallbacks,
        queue_pushes: models.queues.iter().map(|q| q.pushes).sum(),
        queue_stalls: models.queues.iter().map(|q| q.empty_pops).sum(),
        fault: FaultStats::default(),
        watchdog: sec.watchdog.map(|wd| wd.report()).unwrap_or_default(),
        delta,
    };
    Ok((end, stats))
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
