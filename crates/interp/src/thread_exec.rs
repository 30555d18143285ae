//! The real-thread executor.
//!
//! Workers run on OS threads with the runtime's lock-free SPSC queues and
//! raw locks; globals live in a shared atomic store and the world behind a
//! mutex. On this reproduction's single-core host it cannot demonstrate
//! speedups — it exists so the correctness tests can validate that the
//! compiled parallel code computes the same results under genuinely
//! concurrent execution. TM mode falls back to a single global mutex here
//! (pessimistic but correct); the simulated executor models optimism.
//!
//! Runtime specials mean what [`substrate::special`] says; this executor
//! supplies the real-thread [`Substrate`], whose primitives block in
//! place.
//!
//! Robustness: a worker that hits a dynamic error — or *panics* inside a
//! registry intrinsic — no longer takes the process down. The failure is
//! contained (`catch_unwind` plus join-handle inspection), a shared cancel
//! flag unblocks every sibling parked in a queue or lock wait, the SPSC
//! queues are drained, and the run reports
//! [`ExecError::WorkerFailed`] naming the stage and cause.

use crate::bytecode::{BcModule, BcVm};
use crate::config::{ExecConfig, WorldMode};
use crate::error::ExecError;
use crate::globals::{AtomicGlobals, SharedGlobals};
use crate::metrics::MetricsLocal;
use crate::special::SpecialOp;
use crate::substrate::{
    self, Call, ChannelWaits, Lane, Moved, Observed, Prim, Section, Step, Substrate,
};
use crate::vm::StepOutcome;
use commset_ir::Module;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::lock::{LockKind, RawLock};
use commset_runtime::sharded::{ShardObserver, ShardStatsSnapshot, ShardedWorld, WORLD_STRIPES};
use commset_runtime::sync::Mutex;
use commset_runtime::world::SlotError;
use commset_runtime::{
    DeltaSnapshot, FaultInjector, FaultStats, Registry, SpscQueue, Value, WatchdogReport, World,
};
use commset_telemetry::{
    ClockUnit, EventKind, EventLog, JournalEvent, MetricsRegistry, RunCounters, RunReport,
};
use commset_transform::{ParallelPlan, SyncMode, WorkerSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runtime statistics of a threaded run.
#[derive(Debug, Clone, Default)]
pub struct ThreadStats {
    /// Faults delivered by the injection plan.
    pub fault: FaultStats,
    /// Waits-for watchdog findings (merged over all sections).
    pub watchdog: WatchdogReport,
    /// Values drained from pipeline queues during teardown (non-zero only
    /// after a failure cut a pipeline short).
    pub queue_drained: u64,
    /// Shard-lock contention counters (all zero under the single-lock
    /// world).
    pub shard: ShardStatsSnapshot,
    /// Pushes that found a pipeline queue full (producer-side pressure).
    pub queue_full_spins: u64,
    /// Pops that found a pipeline queue empty (consumer-side starvation).
    pub queue_empty_spins: u64,
    /// Delta-privatized activity (all zero unless [`WorldMode::Deltas`]
    /// routed calls into per-worker buffers).
    pub delta: DeltaSnapshot,
}

/// The shared world behind one of the two locking disciplines the
/// executor supports: the historical whole-world mutex, or the
/// rank-ordered sharded world routed by the registry's slot bindings.
enum WorldStore {
    Single(Mutex<World>),
    Sharded(ShardedWorld),
}

impl WorldStore {
    fn new(world: World, mode: WorldMode, registry: &Registry) -> Self {
        let sharded = match mode {
            WorldMode::SingleLock => false,
            // Deltas rides on the sharded world: main-thread calls and
            // calls without full merge coverage behave exactly as Sharded.
            WorldMode::Sharded | WorldMode::Deltas => true,
            WorldMode::Auto => registry.has_bindings(),
        };
        if sharded {
            WorldStore::Sharded(ShardedWorld::partition(world, WORLD_STRIPES))
        } else {
            WorldStore::Single(Mutex::new(world))
        }
    }

    /// Executes one world intrinsic under the store's locking discipline.
    fn call(
        &self,
        registry: &Registry,
        name: &str,
        args: &[Value],
        obs: &ShardObserver<'_>,
    ) -> IntrinsicOutcome {
        match self {
            WorldStore::Single(m) => registry.call(name, &mut m.lock(), args),
            WorldStore::Sharded(s) => s.call(registry, name, args, obs),
        }
    }

    fn snapshot(&self) -> ShardStatsSnapshot {
        match self {
            WorldStore::Single(_) => ShardStatsSnapshot::default(),
            WorldStore::Sharded(s) => s.stats(),
        }
    }

    fn into_world(self) -> World {
        match self {
            WorldStore::Single(m) => m.into_inner(),
            WorldStore::Sharded(s) => s.into_world(),
        }
    }
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadOutcome {
    /// `main`'s return value.
    pub result: Option<Value>,
    /// Wall-clock duration.
    pub wall: Duration,
    /// The world after execution.
    pub world: World,
    /// Fault/watchdog statistics.
    pub stats: ThreadStats,
    /// The unified profiling report, present iff [`ExecConfig::telemetry`]
    /// was on. Timestamps are monotonic nanoseconds since the run's start.
    pub telemetry: Option<RunReport>,
    /// The merged metrics registry (opcode retires, hot-block ranks,
    /// lock/channel wait histograms, queue occupancy, delta merge
    /// sizes), present iff [`ExecConfig::metrics`] was on. Each worker
    /// records into private local state and hands it to the section
    /// barrier at exit.
    pub metrics: Option<MetricsRegistry>,
}

/// Runs the transformed program on real threads with the default
/// configuration (no faults, watchdog on).
///
/// # Errors
///
/// Returns an [`ExecError`] on executor-contract violations (unknown
/// section or queue, nested sections) and on any worker failure — a VM
/// dynamic error or a panic inside an intrinsic handler — as
/// [`ExecError::WorkerFailed`]. Siblings of a failed worker are canceled
/// and report nothing; the process survives.
pub fn run_threaded(
    module: &Module,
    registry: &Registry,
    plans: &[ParallelPlan],
    world: World,
) -> Result<ThreadOutcome, ExecError> {
    run_threaded_with(module, registry, plans, world, &ExecConfig::default())
}

/// The run-wide context every section shares.
struct Run<'a> {
    module: &'a Module,
    /// The compiled program every worker runs.
    bc: &'a BcModule,
    /// The decoded intrinsics, indexed by `IntrinsicId`.
    ops: &'a [SpecialOp],
    registry: &'a Registry,
    globals: &'a Arc<AtomicGlobals>,
    world: &'a WorldStore,
    cfg: &'a ExecConfig,
    injector: &'a FaultInjector,
    /// The run's epoch: event timestamps are nanoseconds since this
    /// instant.
    epoch: Instant,
}

impl Run<'_> {
    fn elapsed(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// [`run_threaded`] with explicit fault-injection and watchdog
/// configuration (delays and stalls are realized as microsecond sleeps).
///
/// # Errors
///
/// As [`run_threaded`].
pub fn run_threaded_with(
    module: &Module,
    registry: &Registry,
    plans: &[ParallelPlan],
    world: World,
    cfg: &ExecConfig,
) -> Result<ThreadOutcome, ExecError> {
    let epoch = Instant::now();
    let injector = FaultInjector::new(cfg.fault.clone());
    let bc = BcModule::compile(module);
    let shared_globals = AtomicGlobals::new(module);
    let world = WorldStore::new(world, cfg.world, registry);
    let mut globals = SharedGlobals::new(Arc::clone(&shared_globals));
    let mut vm = BcVm::for_name(module, &bc, "main", &[])?;
    let ops = SpecialOp::decode_table(&module.intrinsics);
    let run = Run {
        module,
        bc: &bc,
        ops: &ops,
        registry,
        globals: &shared_globals,
        world: &world,
        cfg,
        injector: &injector,
        epoch,
    };
    let mut stats = ThreadStats::default();
    // Every retired op of the run — main thread and workers — lands in
    // `obs.retires`.
    let mut obs = Observed::new(ClockUnit::Nanos, cfg);
    let mut next_ord = 0usize;
    let result = loop {
        // Sampled before the step so a retired op attributes to the site
        // that produced it (main-thread sequential work).
        let site = obs.retires.as_ref().and_then(|_| vm.site());
        match vm.step(&mut globals)? {
            StepOutcome::Ran { cost } => obs.retire(&bc, site, cost),
            StepOutcome::Special(p) => {
                let name = module.intrinsics.name(p.intrinsic.0 as usize);
                let op = ops[p.intrinsic.0 as usize];
                if op == SpecialOp::ParInvoke {
                    let ord = next_ord;
                    next_ord += 1;
                    let plan = substrate::open_section(plans, &p.args, cfg, ord, run.elapsed())?;
                    run_section(&run, plan, ord, &mut obs, &mut stats)?;
                    substrate::close_section(cfg, ord, run.elapsed());
                    vm.resolve_special(Value::Int(0));
                } else if op.is_runtime() {
                    // Synchronization intrinsics outside a section are a
                    // transform bug, not something to forward to the world.
                    return Err(ExecError::ParallelIntrinsicInSequential {
                        name: name.to_string(),
                    });
                } else {
                    // A bad intrinsic on the main thread (wrong slot type,
                    // missing slot, handler bug) is contained exactly like
                    // a worker failure instead of aborting the process.
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        world.call(registry, name, &p.args, &ShardObserver::silent())
                    }))
                    .map_err(|payload| ExecError::WorkerFailed {
                        stage: "main".into(),
                        cause: panic_message(&*payload),
                    })?;
                    vm.resolve_special(out.value);
                }
            }
            StepOutcome::Finished(v) => break v,
        }
    };
    stats.fault = injector.stats();
    stats.shard = world.snapshot();
    let counters = RunCounters {
        fault: stats.fault,
        watchdog_checks: stats.watchdog.checks,
        watchdog_clean: stats.watchdog.is_clean(),
        max_blocked: stats.watchdog.max_blocked,
        shard: stats.shard,
        delta: stats.delta,
        // The thread executor's TM mode is pessimistic (one global lock):
        // every window commits, no optimistic aborts exist here.
        tm_commits: obs
            .proj
            .metrics
            .counters()
            .get("tm.commits")
            .copied()
            .unwrap_or(0),
        tm_aborts: 0,
        tm_fallbacks: 0,
        queue_full_spins: stats.queue_full_spins,
        queue_empty_spins: stats.queue_empty_spins,
        queue_drained: stats.queue_drained,
    };
    let (telemetry, metrics) = obs.finish(module, &bc, cfg, counters, run.elapsed(), None);
    Ok(ThreadOutcome {
        result,
        wall: epoch.elapsed(),
        world: world.into_world(),
        stats,
        telemetry,
        metrics,
    })
}

/// What a worker hands to the section barrier when it exits, failed or
/// not: its events, its retires and its lane (with its delta buffer).
struct Handoff {
    log: EventLog,
    retires: Option<MetricsLocal>,
    lane: Lane,
}

/// Shared, immutable context for one section's worker threads.
struct SectionCtx<'a> {
    run: &'a Run<'a>,
    sec: &'a Section<'a>,
    locks: &'a [RawLock],
    /// TM fallback: one global pessimistic lock.
    tm_lock: &'a RawLock,
    queues: &'a [SpscQueue<u64>],
    cancel: &'a AtomicBool,
    /// Every worker's hand-off, pushed by its spawn wrapper.
    handoffs: &'a Mutex<Vec<(usize, Handoff)>>,
    queue_batch: usize,
    /// Workers record events ([`ExecConfig::telemetry`] or
    /// [`ExecConfig::metrics`]).
    observe: bool,
}

/// Executes one parallel section, the `ord`-th of the run: projects its
/// events into `obs`, folds its workers' retires into it, and adds its
/// watchdog, queue and delta counters to `stats`.
fn run_section(
    run: &Run<'_>,
    plan: &ParallelPlan,
    ord: usize,
    obs: &mut Observed,
    stats: &mut ThreadStats,
) -> Result<(), ExecError> {
    let cfg = run.cfg;
    let sec_start = run.elapsed();
    let sec = Section::new(plan, run.registry, run.injector, cfg);
    let lock_kind = match plan.sync {
        SyncMode::Spin => LockKind::Spin,
        _ => LockKind::Mutex,
    };
    let locks: Vec<RawLock> = plan.locks.iter().map(|_| RawLock::new(lock_kind)).collect();
    let tm_lock = RawLock::new(LockKind::Mutex);
    let queues: Vec<SpscQueue<u64>> = plan
        .queues
        .iter()
        .map(|q| SpscQueue::new(run.injector.clamp_capacity(q.capacity)))
        .collect();
    let cancel = AtomicBool::new(false);
    let handoffs: Mutex<Vec<(usize, Handoff)>> = Mutex::new(Vec::new());
    let observe = cfg.telemetry || cfg.metrics;
    let ctx = SectionCtx {
        run,
        sec: &sec,
        locks: &locks,
        tm_lock: &tm_lock,
        queues: &queues,
        cancel: &cancel,
        handoffs: &handoffs,
        queue_batch: cfg.queue_batch.max(1),
        observe,
    };

    // Deadline enforcement: a monitor thread (spawned inside the scope,
    // below) waits out `cfg.deadline_ms`, escalates to the watchdog for a
    // diagnosis, then trips the cooperative cancel flag — the same flag a
    // failed sibling uses, so every canceling wait unblocks.
    let deadline_fired = AtomicBool::new(false);
    let workers_done = AtomicBool::new(false);
    let results: Vec<Result<(), ExecError>> = std::thread::scope(|scope| {
        let ctx = &ctx;
        if let Some(ms) = cfg.deadline_ms {
            let fired = &deadline_fired;
            let done = &workers_done;
            let wd = sec.watchdog.as_ref();
            let cancel = &cancel;
            scope.spawn(move || {
                let deadline = Duration::from_millis(ms);
                let t0 = Instant::now();
                while !done.load(Ordering::Relaxed) {
                    let elapsed = t0.elapsed();
                    if elapsed >= deadline {
                        // Escalation order: ask the watchdog whether the
                        // overrun is a cycle (its findings land in the
                        // section report), then cancel cooperatively.
                        if let Some(wd) = wd {
                            wd.check();
                        }
                        fired.store(true, Ordering::SeqCst);
                        cancel.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::sleep((deadline - elapsed).min(Duration::from_millis(1)));
                }
            });
        }
        let journal = cfg.journal.as_ref();
        let handles: Vec<_> = plan
            .workers
            .iter()
            .enumerate()
            .map(|(widx, w)| {
                let globals = SharedGlobals::new(Arc::clone(run.globals));
                scope.spawn(move || {
                    let spawned = ctx.run.elapsed();
                    let mut out = Handoff {
                        log: EventLog::new(ctx.observe),
                        retires: cfg.metrics.then(MetricsLocal::new),
                        lane: ctx.sec.lane(widx, w.tid),
                    };
                    let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(ctx, w, globals, &mut out)
                    }));
                    if out.log.on {
                        // The exit is recorded here (not inside the loop)
                        // so events of panicked/failed workers still
                        // reach the section.
                        let exit = EventKind::WorkerExit { spawned };
                        out.log.record(widx, ctx.run.elapsed(), exit);
                    }
                    ctx.handoffs.lock().push((widx, out));
                    let outcome = match body {
                        Ok(r) => r,
                        Err(payload) => Err(ExecError::WorkerFailed {
                            stage: w.func.clone(),
                            cause: panic_message(&*payload),
                        }),
                    };
                    if outcome.is_err() {
                        // Unblock every sibling parked in a queue or lock.
                        ctx.cancel.store(true, Ordering::SeqCst);
                    }
                    if let Some(j) = journal {
                        j.record(JournalEvent {
                            section: Some(ord as u64),
                            worker: Some(widx as u64),
                            ..JournalEvent::new("worker_done", ctx.run.elapsed())
                                .field("stage", w.func.clone())
                                .field("ok", outcome.is_ok().to_string())
                        });
                    }
                    outcome
                })
            })
            .collect();
        let results: Vec<Result<(), ExecError>> = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // catch_unwind already contained worker panics; this arm
                // only fires for panics outside it (defensive).
                Err(payload) => Err(ExecError::WorkerFailed {
                    stage: "<worker>".into(),
                    cause: panic_message(&*payload),
                }),
            })
            .collect();
        // Workers joined: release the deadline monitor (it polls this
        // flag at millisecond granularity, so the scope exits promptly).
        workers_done.store(true, Ordering::Relaxed);
        results
    });

    // All workers are joined: snapshot the contention counters (before
    // the teardown drain perturbs them), then drain abandoned pipeline
    // values so a failed run does not leak queue slots.
    let queue_spins: Vec<(u64, u64)> = queues.iter().map(|q| q.contention()).collect();
    for &(f, e) in &queue_spins {
        stats.queue_full_spins += f;
        stats.queue_empty_spins += e;
    }
    stats.queue_drained += queues.iter().map(|q| q.drain() as u64).sum::<u64>();
    stats
        .watchdog
        .absorb(sec.watchdog.map(|wd| wd.report()).unwrap_or_default());

    // Report the most informative failure: a real WorkerFailed beats the
    // Canceled noise of its siblings.
    let canceled = |e: &ExecError| matches!(e, ExecError::Canceled { .. });
    let mut first: Option<ExecError> = None;
    for (w, r) in plan.workers.iter().zip(results) {
        let e = match r {
            Ok(()) => continue,
            Err(e @ (ExecError::WorkerFailed { .. } | ExecError::Canceled { .. })) => e,
            Err(other) => ExecError::WorkerFailed {
                stage: w.func.clone(),
                cause: other.to_string(),
            },
        };
        if first.as_ref().is_none_or(|f| canceled(f) && !canceled(&e)) {
            first = Some(e);
        }
    }
    if let Some(e) = first {
        // When the deadline monitor tripped the cancel flag, the workers'
        // Canceled noise *is* the deadline overrun; a genuine
        // WorkerFailed that raced the deadline still wins (it carries the
        // root cause).
        return Err(match e {
            ExecError::Canceled { .. } if deadline_fired.load(Ordering::SeqCst) => {
                ExecError::DeadlineExceeded {
                    section: plan.section,
                    deadline_ms: cfg.deadline_ms.unwrap_or(0),
                }
            }
            e => e,
        });
    }

    let mut handoffs = handoffs.into_inner();
    handoffs.sort_by_key(|(w, _)| *w);
    let mut events = Vec::new();
    let mut deltas = Vec::new();
    for (_, mut h) in handoffs {
        events.extend(h.log.take());
        if let (Some(into), Some(r)) = (obs.retires.as_mut(), h.retires) {
            into.absorb(r);
        }
        deltas.extend(h.lane.delta);
    }
    // Delta coalesce: fold the finished per-worker buffers into the
    // shared shards, in worker-index order (then slot-name order inside
    // each buffer) — the deterministic fold DESIGN.md §14 specifies. A
    // poisoned or panicking merge is contained exactly like a worker
    // panic so the supervisor can descend the ladder to plain Sharded.
    let delta = match run.world {
        WorldStore::Sharded(sw) => {
            let metrics = cfg.metrics.then_some(&mut obs.proj.metrics);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                substrate::coalesce(deltas, run.injector, metrics, |buf| {
                    sw.coalesce_delta(run.registry, buf)
                })
            }))
            .map_err(|payload| ExecError::WorkerFailed {
                stage: "__delta_coalesce".into(),
                cause: panic_message(&*payload),
            })??
        }
        // Delta privatization rides on the sharded world.
        WorldStore::Single(_) => DeltaSnapshot::default(),
    };
    stats.delta.absorb(delta);
    if observe {
        // One section log in timestamp order; the sort is stable, so each
        // worker's events keep their recording order.
        events.sort_by_key(|e| e.time);
        obs.section(
            plan,
            ord,
            queue_spins,
            (sec_start, run.elapsed()),
            &[],
            events,
        );
    }
    Ok(())
}

/// The real-thread substrate of one worker: raw locks, batched SPSC
/// queues and the shared world, all waiting in place.
///
/// DSWP queue batching: producer-side staging buffers (published with one
/// `push_n` per batch) and consumer-side refill buffers (refilled with
/// one `pop_n` per batch). Invariant: *all* staged pushes are flushed
/// before this worker enters any blocking wait — a lock acquisition, a
/// TM begin, a blocking pop, or its own exit — so no sibling can wait
/// forever on a value parked in our staging buffer.
struct Threads<'a> {
    ctx: &'a SectionCtx<'a>,
    /// The worker's stage function, named by a cancellation.
    stage: &'a str,
    staged: Vec<Vec<u64>>,
    refill: Vec<VecDeque<u64>>,
    scratch: Vec<u64>,
}

impl Threads<'_> {
    fn canceled(&self) -> ExecError {
        ExecError::Canceled {
            stage: self.stage.into(),
        }
    }

    /// Round-robin flush of every staged queue push. Never parks on one
    /// full queue while another staged queue could make progress (a
    /// consumer blocked on queue B must not be starved by our full queue
    /// A), so the staging layer cannot introduce cross-queue deadlocks.
    fn flush(&mut self) -> Result<(), ExecError> {
        loop {
            let mut remaining = false;
            for (q, buf) in self.staged.iter_mut().enumerate() {
                if buf.is_empty() {
                    continue;
                }
                let sent = self.ctx.queues[q].push_n(buf);
                if sent > 0 {
                    buf.drain(..sent);
                }
                remaining |= !buf.is_empty();
            }
            if !remaining {
                return Ok(());
            }
            if self.ctx.cancel.load(Ordering::Relaxed) {
                return Err(self.canceled());
            }
            std::thread::yield_now();
        }
    }

    /// Publishes the staged values (a blocking wait is ahead), then takes
    /// `lock`.
    fn acquire(&mut self, lock: &RawLock) -> Result<(), ExecError> {
        self.flush()?;
        if lock.acquire_canceling(self.ctx.cancel) {
            Ok(())
        } else {
            Err(self.canceled())
        }
    }

    /// A completed queue operation on `q`, observed now.
    fn moved(&self, w: usize, q: usize, bits: u64) -> Moved {
        let occupancy = if self.ctx.observe {
            self.ctx.queues[q].len() as u64
        } else {
            0
        };
        Moved {
            attempt: self.now(w),
            occupancy,
            bits,
        }
    }
}

impl Substrate for Threads<'_> {
    /// Nanoseconds since the run's epoch; 0 when nothing is observed.
    fn now(&self, _w: usize) -> u64 {
        if self.ctx.observe {
            self.ctx.run.elapsed()
        } else {
            0
        }
    }

    fn delay(&mut self, _w: usize, t: u64) {
        if t > 0 {
            std::thread::sleep(Duration::from_micros(t));
        }
    }

    fn lock(&mut self, w: usize, rank: usize) -> Result<Prim<u64>, ExecError> {
        let (ctx, blocked) = (self.ctx, self.now(w));
        self.acquire(&ctx.locks[rank])?;
        // Every acquisition waits from its Block to the grant; an injected
        // grant delay after it is neither wait nor hold, as on the DES.
        Ok(Prim {
            blocked: Some(blocked),
            done: Some(self.now(w)),
        })
    }

    fn unlock(&mut self, w: usize, rank: usize) -> u64 {
        let t = self.now(w);
        self.ctx.locks[rank].release();
        t
    }

    fn push(&mut self, w: usize, q: usize, bits: u64) -> Result<Prim<Moved>, ExecError> {
        self.staged[q].push(bits);
        let mut blocked = None;
        if self.staged[q].len() >= self.ctx.queue_batch {
            blocked = Some(self.now(w));
            self.flush()?;
        }
        Ok(Prim {
            blocked,
            done: Some(self.moved(w, q, bits)),
        })
    }

    fn pop(&mut self, w: usize, q: usize) -> Result<Prim<Moved>, ExecError> {
        let mut blocked = None;
        let bits = match self.refill[q].pop_front() {
            Some(b) => b,
            None => {
                // Blocking wait ahead: publish staged values first, then
                // take one value (blocking) and opportunistically batch up
                // whatever else is already there.
                blocked = Some(self.now(w));
                self.flush()?;
                let queue = &self.ctx.queues[q];
                let Some(first) = queue.pop_canceling(self.ctx.cancel) else {
                    return Err(self.canceled());
                };
                if self.ctx.queue_batch > 1 {
                    self.scratch.clear();
                    queue.pop_n(&mut self.scratch, self.ctx.queue_batch - 1);
                    self.refill[q].extend(self.scratch.drain(..));
                }
                first
            }
        };
        Ok(Prim {
            blocked,
            done: Some(self.moved(w, q, bits)),
        })
    }

    fn tx_begin(&mut self, w: usize) -> Result<u64, ExecError> {
        let ctx = self.ctx;
        self.acquire(ctx.tm_lock)?;
        Ok(self.now(w))
    }

    fn tx_commit(&mut self, _w: usize) -> u64 {
        // Pessimistic TM: the window commits, no aborts.
        self.ctx.tm_lock.release();
        0
    }

    fn world(&mut self, w: usize, call: Call<'_>) -> Option<(Value, ChannelWaits)> {
        // World calls never wait on queues (handlers only touch world
        // slots), so staged pushes can stay parked across them:
        // shard/world locks are leaf locks and cannot be held by a
        // sibling that is blocked on one of our queues.
        let ctx = self.ctx;
        let obs = ShardObserver {
            watchdog: ctx.sec.watchdog.as_ref(),
            worker: w,
            rank_base: ctx.locks.len(),
            injector: Some(ctx.run.injector),
        };
        let out = ctx
            .run
            .world
            .call(ctx.run.registry, call.name, call.args, &obs);
        Some((out.value, Vec::new()))
    }
}

/// One worker's execution; every failure mode returns an error.
///
/// Events, retires and the delta buffer accumulate into the
/// caller-owned `out` (handed to the section by the spawn wrapper, even
/// when this loop errors or panics).
fn worker_loop(
    ctx: &SectionCtx<'_>,
    w: &WorkerSpec,
    mut globals: SharedGlobals,
    out: &mut Handoff,
) -> Result<(), ExecError> {
    let (run, widx) = (ctx.run, out.lane.worker);
    let mut vm = substrate::worker_vm(run.module, run.bc, w, run.cfg.telemetry)?;
    let mut sub = Threads {
        ctx,
        stage: &w.func,
        staged: ctx.queues.iter().map(|_| Vec::new()).collect(),
        refill: ctx.queues.iter().map(|_| VecDeque::new()).collect(),
        scratch: Vec::new(),
    };
    loop {
        if ctx.cancel.load(Ordering::Relaxed) {
            return Err(sub.canceled());
        }
        // Sampled before the step so a retired op attributes to the site
        // that produced it.
        let site = out.retires.as_ref().and_then(|_| vm.site());
        let step = vm.step(&mut globals)?;
        if out.log.on {
            for ev in vm.drain_call_events() {
                out.log.record(widx, run.elapsed(), ev.into());
            }
        }
        match step {
            StepOutcome::Ran { cost } => {
                if let (Some(r), Some(site)) = (out.retires.as_mut(), site) {
                    r.retire(run.bc, site, cost);
                }
            }
            // Publish any staged queue values before exiting.
            StepOutcome::Finished(_) => return sub.flush(),
            StepOutcome::Special(p) => {
                let id = p.intrinsic.0 as usize;
                let call = Call {
                    id,
                    name: run.module.intrinsics.name(id),
                    args: &p.args,
                };
                let (lane, log) = (&mut out.lane, &mut out.log);
                match substrate::special(ctx.sec, &mut sub, lane, log, run.ops[id], call)? {
                    Step::Value(v) => vm.resolve_special(v),
                    // Real threads wait inside the primitives; a wait
                    // reported anyway is retried.
                    Step::Wait(_) => vm.retry_special_later(),
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(e) = payload.downcast_ref::<SlotError>() {
        // World wiring bugs unwind with a typed payload (see
        // `commset_runtime::world`): surface the structured message.
        e.to_string()
    } else {
        "worker panicked (non-string payload)".into()
    }
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
    use commset_telemetry::{TraceEvent, TraceRecord};
    use commset_transform::{doall, dswp};
    use std::collections::BTreeSet;

    fn table() -> IntrinsicTable {
        let mut t = IntrinsicTable::new();
        t.register("add_acc", vec![Type::Int], Type::Void, &[], &["ACC"], 50);
        t.register("double", vec![Type::Int], Type::Int, &[], &[], 50);
        t.register("emit", vec![Type::Int], Type::Void, &[], &["OUT"], 20);
        t
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.register("add_acc", |world, args| {
            *world.get_mut::<i64>("acc") += args[0].as_int();
            IntrinsicOutcome::unit()
        });
        r.register("double", |_, args| {
            IntrinsicOutcome::value(args[0].as_int() * 2)
        });
        r.register("emit", |world, args| {
            world.get_mut::<Vec<i64>>("out").push(args[0].as_int());
            IntrinsicOutcome::unit()
        });
        r
    }

    fn compile_doall(src: &str, nthreads: usize, sync: SyncMode) -> (Module, ParallelPlan) {
        let table = table();
        let unit = commset_lang::compile_unit(src).unwrap();
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

    const SUM_SRC: &str = r#"
        extern void add_acc(int v);
        int main() {
            int n = 200;
            for (int i = 0; i < n; i = i + 1) {
                #pragma CommSet(SELF)
                { add_acc(i); }
            }
            return 0;
        }
    "#;

    #[test]
    fn threaded_doall_sums_correctly() {
        let (module, plan) = compile_doall(SUM_SRC, 4, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let out = run_threaded(&module, &registry(), &[plan], world).unwrap();
        assert_eq!(*out.world.get::<i64>("acc"), (0..200).sum::<i64>());
        assert!(out.stats.watchdog.is_clean(), "{:?}", out.stats.watchdog);
    }

    #[test]
    fn threaded_pipeline_preserves_order() {
        let src = r#"
            extern int double(int x);
            extern void emit(int y);
            int main() {
                int n = 100;
                for (int i = 0; i < n; i = i + 1) {
                    int y = double(i);
                    emit(y);
                }
                return 0;
            }
        "#;
        let table = table();
        let unit = commset_lang::compile_unit(src).unwrap();
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
            4,
            SyncMode::Lib,
            0,
        )
        .unwrap();
        let module = lower_program(&pp.program, table).unwrap();
        let mut world = World::new();
        world.install("out", Vec::<i64>::new());
        let out = run_threaded(&module, &registry(), &[pp.plan], world).unwrap();
        let produced = out.world.get::<Vec<i64>>("out");
        let expected: Vec<i64> = (0..100).map(|i| i * 2).collect();
        assert_eq!(produced, &expected);
    }

    #[test]
    fn threaded_trace_observes_every_region_instance() {
        let (module, plan) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let cfg = ExecConfig {
            telemetry: true,
            ..ExecConfig::default()
        };
        let out = run_threaded_with(&module, &registry(), &[plan], world, &cfg).unwrap();
        assert_eq!(*out.world.get::<i64>("acc"), (0..200).sum::<i64>());
        let recs = out.telemetry.expect("telemetry on").trace;
        let enters: Vec<&TraceRecord> = recs
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RegionEnter { .. }))
            .collect();
        assert_eq!(enters.len(), 200, "one region instance per iteration");
        // Per-worker times strictly increase: the per-worker subsequence
        // is a valid logical order.
        for w in 0..3 {
            let times: Vec<u64> = recs
                .iter()
                .filter(|r| r.worker == w)
                .map(|r| r.time)
                .collect();
            assert!(
                times.windows(2).all(|p| p[0] <= p[1]),
                "worker {w}: {times:?}"
            );
        }
        assert!(recs
            .iter()
            .any(|r| matches!(r.event, TraceEvent::LockAcquire { .. })));
    }

    #[test]
    fn telemetry_attaches_report_and_stays_opt_in() {
        let (module, plan) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let cfg = ExecConfig {
            telemetry: true,
            ..ExecConfig::default()
        };
        let out = run_threaded_with(&module, &registry(), &[plan], world, &cfg).unwrap();
        assert_eq!(*out.world.get::<i64>("acc"), (0..200).sum::<i64>());
        let report = out.telemetry.expect("telemetry on must attach a report");
        assert_eq!(report.sections.len(), 1);
        let s = &report.sections[0];
        assert_eq!(s.workers.len(), 3);
        assert_eq!(
            s.workers.iter().map(|w| w.regions).sum::<u64>(),
            200,
            "every region instance must be spanned"
        );
        assert!(s.locks[0].acquires > 0, "{:?}", s.locks);
        assert!(s.workers.iter().all(|w| w.total > 0));
        // Off by default: no report, no span cost.
        let (module2, plan2) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world2 = World::new();
        world2.install("acc", 0i64);
        let out2 = run_threaded(&module2, &registry(), &[plan2], world2).unwrap();
        assert!(out2.telemetry.is_none());
    }

    #[test]
    fn metrics_and_journal_attach_and_stay_opt_in() {
        let (module, plan) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let journal = commset_telemetry::Journal::new(42);
        let cfg = ExecConfig {
            metrics: true,
            journal: Some(journal.clone()),
            ..ExecConfig::default()
        };
        let out = run_threaded_with(&module, &registry(), &[plan], world, &cfg).unwrap();
        assert_eq!(*out.world.get::<i64>("acc"), (0..200).sum::<i64>());
        let reg = out.metrics.expect("metrics on must attach a registry");
        assert!(!reg.opcodes().is_empty(), "opcode retires recorded");
        assert!(
            reg.blocks().keys().all(|k| k.contains(":bb")),
            "{:?}",
            reg.blocks()
        );
        assert!(
            reg.hists().keys().any(|k| k.starts_with("lock_wait.")),
            "lock waits observed: {:?}",
            reg.hists().keys().collect::<Vec<_>>()
        );
        let jsonl = journal.to_jsonl();
        for kind in ["section_start", "worker_done", "section_end", "metrics"] {
            assert!(jsonl.contains(&format!("\"kind\":\"{kind}\"")), "{jsonl}");
        }
        // Off by default: no registry attached.
        let (module2, plan2) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world2 = World::new();
        world2.install("acc", 0i64);
        let out2 = run_threaded(&module2, &registry(), &[plan2], world2).unwrap();
        assert!(out2.metrics.is_none());
    }

    #[test]
    fn worker_dynamic_error_is_contained_and_named() {
        // Division by zero at i == 50 inside one worker's slice.
        let src = r#"
            extern void add_acc(int v);
            int main() {
                int n = 200;
                for (int i = 0; i < n; i = i + 1) {
                    int z = 100 / (50 - i);
                    #pragma CommSet(SELF)
                    { add_acc(z); }
                }
                return 0;
            }
        "#;
        let (module, plan) = compile_doall(src, 4, SyncMode::Spin);
        let mut world = World::new();
        world.install("acc", 0i64);
        let err = run_threaded(&module, &registry(), &[plan], world).unwrap_err();
        match err {
            ExecError::WorkerFailed { stage, cause } => {
                assert!(stage.starts_with("__par"), "stage: {stage}");
                assert!(cause.contains("division by zero"), "cause: {cause}");
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    #[test]
    fn intrinsic_panic_is_contained_and_siblings_cancel() {
        // The panicking intrinsic fires mid-pipeline, leaving the consumer
        // blocked on its queue: cancellation must unblock it and the run
        // must report the panic message, not abort the process.
        let src = r#"
            extern int double(int x);
            extern void emit(int y);
            int main() {
                int n = 100;
                for (int i = 0; i < n; i = i + 1) {
                    int y = double(i);
                    emit(y);
                }
                return 0;
            }
        "#;
        let table = table();
        let unit = commset_lang::compile_unit(src).unwrap();
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
            4,
            SyncMode::Lib,
            0,
        )
        .unwrap();
        let module = lower_program(&pp.program, table).unwrap();
        let mut reg = Registry::new();
        reg.register("double", |_, args| {
            let x = args[0].as_int();
            if x == 30 {
                panic!("intrinsic blew up at 30");
            }
            IntrinsicOutcome::value(x * 2)
        });
        reg.register("emit", |world, args| {
            world.get_mut::<Vec<i64>>("out").push(args[0].as_int());
            IntrinsicOutcome::unit()
        });
        let mut world = World::new();
        world.install("out", Vec::<i64>::new());
        let err = run_threaded(&module, &reg, &[pp.plan], world).unwrap_err();
        match err {
            ExecError::WorkerFailed { cause, .. } => {
                assert!(cause.contains("intrinsic blew up at 30"), "cause: {cause}");
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    #[test]
    fn missing_world_slot_maps_to_worker_failed_not_abort() {
        // The registry expects "acc" but the world never installs it: the
        // SlotError panic must surface as a structured WorkerFailed from
        // the failing stage, with the slot named in the cause.
        let (module, plan) = compile_doall(SUM_SRC, 2, SyncMode::Spin);
        let err = run_threaded(&module, &registry(), &[plan], World::new()).unwrap_err();
        match err {
            ExecError::WorkerFailed { cause, .. } => {
                assert!(
                    cause.contains("world slot `acc` is not installed"),
                    "cause: {cause}"
                );
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    #[test]
    fn main_thread_slot_error_maps_to_worker_failed() {
        // A sequential (outside-section) intrinsic with a bad slot must be
        // contained on the main thread too.
        let src = r#"
            extern void add_acc(int v);
            int main() {
                add_acc(1);
                return 0;
            }
        "#;
        let table = table();
        let unit = commset_lang::compile_unit(src).unwrap();
        let managed = manage(unit).unwrap();
        let module = lower_program(&managed.program, table).unwrap();
        // Wrong type: "acc" holds a String, the handler wants i64.
        let mut world = World::new();
        world.install("acc", String::from("oops"));
        let err = run_threaded(&module, &registry(), &[], world).unwrap_err();
        match err {
            ExecError::WorkerFailed { stage, cause } => {
                assert_eq!(stage, "main");
                assert!(
                    cause.contains("world slot `acc` has an unexpected type"),
                    "cause: {cause}"
                );
            }
            other => panic!("expected WorkerFailed, got {other}"),
        }
    }

    #[test]
    fn sharded_world_matches_single_lock_results() {
        use commset_runtime::SlotBinding;
        for mode in [WorldMode::SingleLock, WorldMode::Sharded] {
            let (module, plan) = compile_doall(SUM_SRC, 4, SyncMode::Spin);
            let mut reg = registry();
            reg.bind("add_acc", vec![SlotBinding::Fixed("acc".into())]);
            let mut world = World::new();
            world.install("acc", 0i64);
            let cfg = ExecConfig {
                world: mode,
                ..ExecConfig::default()
            };
            let out = run_threaded_with(&module, &reg, &[plan], world, &cfg).unwrap();
            assert_eq!(
                *out.world.get::<i64>("acc"),
                (0..200).sum::<i64>(),
                "{mode:?}"
            );
            assert!(out.stats.watchdog.is_clean(), "{:?}", out.stats.watchdog);
            match mode {
                WorldMode::Sharded => assert!(
                    out.stats.shard.fast_acquires > 0,
                    "bound intrinsic must use the fast path: {:?}",
                    out.stats.shard
                ),
                _ => assert_eq!(out.stats.shard, ShardStatsSnapshot::default()),
            }
        }
    }

    #[test]
    fn auto_mode_picks_sharded_when_bindings_exist() {
        use commset_runtime::SlotBinding;
        let (module, plan) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut reg = registry();
        reg.bind("add_acc", vec![SlotBinding::Fixed("acc".into())]);
        let mut world = World::new();
        world.install("acc", 0i64);
        let out = run_threaded(&module, &reg, &[plan], world).unwrap();
        assert_eq!(*out.world.get::<i64>("acc"), (0..200).sum::<i64>());
        assert!(out.stats.shard.fast_acquires > 0, "{:?}", out.stats.shard);
        // Without bindings, Auto stays on the single lock.
        let (module2, plan2) = compile_doall(SUM_SRC, 3, SyncMode::Spin);
        let mut world2 = World::new();
        world2.install("acc", 0i64);
        let out2 = run_threaded(&module2, &registry(), &[plan2], world2).unwrap();
        assert_eq!(out2.stats.shard, ShardStatsSnapshot::default());
    }

    #[test]
    fn pipeline_results_hold_across_queue_batch_sizes() {
        let src = r#"
            extern int double(int x);
            extern void emit(int y);
            int main() {
                int n = 100;
                for (int i = 0; i < n; i = i + 1) {
                    int y = double(i);
                    emit(y);
                }
                return 0;
            }
        "#;
        let expected: Vec<i64> = (0..100).map(|i| i * 2).collect();
        for qb in [1usize, 2, 8, 64] {
            let table = table();
            let unit = commset_lang::compile_unit(src).unwrap();
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
                4,
                SyncMode::Lib,
                0,
            )
            .unwrap();
            let module = lower_program(&pp.program, table).unwrap();
            let mut world = World::new();
            world.install("out", Vec::<i64>::new());
            let cfg = ExecConfig {
                queue_batch: qb,
                ..ExecConfig::default()
            };
            let out = run_threaded_with(&module, &registry(), &[pp.plan], world, &cfg).unwrap();
            assert_eq!(
                out.world.get::<Vec<i64>>("out"),
                &expected,
                "queue_batch = {qb}"
            );
        }
    }

    #[test]
    fn fault_plans_leave_threaded_results_intact() {
        for fault in [
            FaultPlan::lock_delay(9, 40),
            FaultPlan::worker_stall(9, 1, 60),
            FaultPlan::queue_pushback(9),
        ] {
            let (module, plan) = compile_doall(SUM_SRC, 3, SyncMode::Mutex);
            let mut world = World::new();
            world.install("acc", 0i64);
            let cfg = ExecConfig::with_fault(fault.clone());
            let out = run_threaded_with(&module, &registry(), &[plan], world, &cfg).unwrap();
            assert_eq!(
                *out.world.get::<i64>("acc"),
                (0..200).sum::<i64>(),
                "fault {fault:?} must not change results"
            );
            assert!(out.stats.watchdog.is_clean(), "{:?}", out.stats.watchdog);
        }
    }
}
