//! One semantics for the runtime specials, over three substrates.
//!
//! [`special`] is the meaning of every runtime special (locks, queues,
//! transactions, `__par_invoke`) and of a world call made by a section
//! worker. It is written once, generic over a [`Substrate`] that supplies
//! only the primitives: lock, unlock, push, pop, transaction begin and
//! commit, world call, injected delay and the clock. Three substrates
//! instantiate it:
//!
//! * the DES (`sim_exec`): `commset-sim`'s lock, queue and TM models and
//!   channel serialization, on modeled ticks;
//! * real threads (`thread_exec`): raw locks, batched SPSC queues and the
//!   sharded world, on measured nanoseconds;
//! * the checker's controlled executor: vacuous locks and transactions
//!   (the trait's defaults), FIFO queues and its model world.
//!
//! Everything else lives here, once: the injected stall and slow-worker
//! drag, lock elision under delta privatization, the waits-for watchdog
//! bracket, queue-id lookup, the executor-contract errors, delta routing
//! into the worker's buffer, and the one recording site of each lock,
//! queue, transaction and world-call event. A primitive that cannot
//! complete reports it, and [`special`] returns [`Step::Wait`]; each
//! executor parks the worker in its own way (the DES blocks it until a
//! wake, the checker surfaces it to its scheduler).
//!
//! The run and section bookkeeping the DES and threads share — delta
//! privatization, lock elision, the queue index, the section metadata
//! and journal records, the delta coalesce and the report and counter
//! publication — lives here too.

use crate::bytecode::{BcModule, BcVm};
use crate::config::{ExecConfig, WorldMode};
use crate::error::ExecError;
use crate::metrics::MetricsLocal;
use crate::special::SpecialOp;
use commset_ir::Module;
use commset_runtime::intrinsics::IntrinsicOutcome;
use commset_runtime::{
    DeltaBuffer, DeltaSnapshot, FaultInjector, Registry, Value, Watchdog, DELTA_POISON_MSG,
};
use commset_telemetry::{
    ClockUnit, Event, EventKind, EventLog, JournalEvent, MetricsRegistry, Projection, RunCounters,
    RunReport, SectionMeta,
};
use commset_transform::{ParallelPlan, WorkerSpec};
use std::collections::HashMap;

/// What a special resolved to.
#[derive(Debug)]
pub enum Step {
    /// It completed with this value; the worker continues.
    Value(Value),
    /// It cannot complete yet; the worker parks until the named resource
    /// may have changed, then retries the special.
    Wait(Park),
}

/// What a waiting worker waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Park {
    /// A held lock, by rank.
    Lock(usize),
    /// A full queue, by plan index.
    Push(usize),
    /// An empty queue, by plan index.
    Pop(usize),
    /// The executor's turn to run a world call.
    World,
}

/// What a substrate primitive did.
#[derive(Debug)]
pub struct Prim<T> {
    /// When this attempt made the worker start waiting, if it did: the
    /// time of its [`EventKind::Block`].
    pub blocked: Option<u64>,
    /// The result; `None` when the worker must wait.
    pub done: Option<T>,
}

impl<T> Prim<T> {
    /// Completed without waiting.
    pub fn done(v: T) -> Self {
        Prim {
            blocked: None,
            done: Some(v),
        }
    }

    /// Cannot complete now.
    pub fn wait(blocked: Option<u64>) -> Self {
        Prim {
            blocked,
            done: None,
        }
    }
}

/// A completed queue push or pop.
#[derive(Debug)]
pub struct Moved {
    /// Start of the completing attempt.
    pub attempt: u64,
    /// Items in the queue afterwards.
    pub occupancy: u64,
    /// The value's bits.
    pub bits: u64,
}

/// `(channel id, delay)` pairs of a world call.
pub type ChannelWaits = Vec<(usize, u64)>;

/// One call of a special: the intrinsic and its evaluated arguments.
#[derive(Debug, Clone, Copy)]
pub struct Call<'a> {
    /// `IntrinsicId` index.
    pub id: usize,
    /// Intrinsic name.
    pub name: &'a str,
    /// Evaluated arguments.
    pub args: &'a [Value],
}

/// The primitives one executor supplies; `w` is the worker index within
/// the section. The defaults are a substrate with no clock, no injected
/// delay, and vacuous locks and transactions. A primitive's error is a
/// canceled wait.
pub trait Substrate {
    /// Worker `w`'s clock, read only at event sites whose log is on.
    fn now(&self, _w: usize) -> u64 {
        0
    }
    /// Charges an injected delay of `t` (ticks, or microseconds slept).
    fn delay(&mut self, _w: usize, _t: u64) {}
    /// Acquires the rank-`rank` lock; returns when it was granted.
    fn lock(&mut self, _w: usize, _rank: usize) -> Result<Prim<u64>, ExecError> {
        Ok(Prim::done(0))
    }
    /// Releases the rank-`rank` lock; returns the end of the hold.
    fn unlock(&mut self, _w: usize, _rank: usize) -> u64 {
        0
    }
    /// Pushes `bits` onto queue `q` (plan index).
    fn push(&mut self, w: usize, q: usize, bits: u64) -> Result<Prim<Moved>, ExecError>;
    /// Pops from queue `q` (plan index).
    fn pop(&mut self, w: usize, q: usize) -> Result<Prim<Moved>, ExecError>;
    /// Opens a transaction; returns when it began.
    fn tx_begin(&mut self, _w: usize) -> Result<u64, ExecError> {
        Ok(0)
    }
    /// Commits the open transaction; returns its optimistic aborts.
    fn tx_commit(&mut self, _w: usize) -> u64 {
        0
    }
    /// Runs a world call against the shared world; returns its value and
    /// the `(channel id, delay)` of each serialized channel that alone
    /// would have delayed it (modeled channels only). `None` when the
    /// worker must wait for its turn.
    fn world(&mut self, w: usize, call: Call<'_>) -> Option<(Value, ChannelWaits)>;
    /// Charges a call that already ran against the worker's private delta
    /// buffer.
    fn private(&mut self, _w: usize, _call: Call<'_>, _out: &IntrinsicOutcome) {}
}

/// One worker's state that the semantics owns.
pub struct Lane {
    /// Worker index within the section.
    pub worker: usize,
    /// The worker's `tid` argument (fault plans target it).
    pub tid: i64,
    /// The private delta buffer under delta privatization.
    pub delta: Option<DeltaBuffer>,
    /// A transaction is open.
    pub in_tx: bool,
}

/// The per-section setup every special consults.
pub struct Section<'a> {
    /// Handlers, slot bindings and merge declarations.
    pub registry: &'a Registry,
    /// The run's fault injector.
    pub injector: &'a FaultInjector,
    /// The waits-for watchdog, when on.
    pub watchdog: Option<Watchdog>,
    /// Merge-covered world calls run against per-worker delta buffers:
    /// [`WorldMode::Deltas`], merges declared, and no cross-worker queues
    /// (pipeline stages pass handles through queues, so they keep the
    /// serialized discipline).
    pub delta_on: bool,
    /// Lock rank -> elided. Static lock elision: a CommSet region lock
    /// whose guarded intrinsics are all delta-covered serializes nothing —
    /// every effect in the region lands in a worker-private buffer,
    /// invisible to siblings until the barrier, and the declared merges
    /// make the coalesce order immaterial. Synthetic locks (`__reduction`)
    /// have no members and are never elided.
    pub elided: Vec<bool>,
    /// Queue id -> plan index.
    pub queue_index: HashMap<i64, usize>,
}

impl<'a> Section<'a> {
    /// The setup of `plan` under `cfg`'s world mode and watchdog switch.
    pub fn new(
        plan: &ParallelPlan,
        registry: &'a Registry,
        injector: &'a FaultInjector,
        cfg: &ExecConfig,
    ) -> Self {
        let delta_on = matches!(cfg.world, WorldMode::Deltas)
            && registry.has_merges()
            && plan.queues.is_empty();
        let covered = |members: &[String]| {
            !members.is_empty() && members.iter().all(|m| registry.delta_covered(m))
        };
        Section {
            registry,
            injector,
            watchdog: cfg.watchdog.then(Watchdog::new),
            delta_on,
            elided: plan
                .locks
                .iter()
                .map(|l| delta_on && covered(&l.members))
                .collect(),
            queue_index: plan
                .queues
                .iter()
                .enumerate()
                .map(|(i, q)| (q.id, i))
                .collect(),
        }
    }

    /// A fresh lane for worker `worker` with argument `tid`.
    pub fn lane(&self, worker: usize, tid: i64) -> Lane {
        Lane {
            worker,
            tid,
            delta: self.delta_on.then(DeltaBuffer::new),
            in_tx: false,
        }
    }

    fn queue(&self, args: &[Value]) -> Result<usize, ExecError> {
        let id = args[0].as_int();
        self.queue_index
            .get(&id)
            .copied()
            .ok_or(ExecError::UnknownQueue { id })
    }
}

/// Executes one special of `lane`'s worker on `sub`.
///
/// # Errors
///
/// Unknown queues, a commit without a begin, a nested parallel section,
/// and a canceled substrate wait.
pub fn special<S: Substrate>(
    sec: &Section<'_>,
    sub: &mut S,
    lane: &mut Lane,
    log: &mut EventLog,
    op: SpecialOp,
    call: Call<'_>,
) -> Result<Step, ExecError> {
    let (w, inj, args, wd) = (lane.worker, sec.injector, call.args, sec.watchdog.as_ref());
    // A stalled worker pauses at its synchronization events; a slow
    // worker pays its drag at every one of them.
    sub.delay(w, inj.worker_stall(lane.tid) + inj.slow_worker(lane.tid));
    let block = |log: &mut EventLog, blocked: Option<u64>| {
        if let (true, Some(t)) = (log.on, blocked) {
            log.record(w, t, EventKind::Block);
        }
    };
    let elided = |l: usize| sec.elided.get(l).copied().unwrap_or(false);
    let (kind, value) = match op {
        SpecialOp::LockAcquire => {
            let l = args[0].as_int() as usize;
            if elided(l) {
                // Delta privatization covers everything this lock guards:
                // proceed with no lock state touched.
                if let Some(buf) = lane.delta.as_mut() {
                    buf.lock_elisions += 1;
                }
                return Ok(Step::Value(Value::Int(0)));
            }
            if let Some(wd) = wd {
                wd.acquiring(w, l);
            }
            let attempt = sub.now(w);
            let got = sub.lock(w, l).inspect_err(|_| {
                if let Some(wd) = wd {
                    wd.wait_abandoned(w);
                }
            })?;
            block(log, got.blocked);
            let Some(granted) = got.done else {
                return Ok(Step::Wait(Park::Lock(l)));
            };
            if let Some(wd) = wd {
                wd.acquired(w, l);
            }
            sub.delay(w, inj.lock_grant_delay());
            let acquire = EventKind::LockAcquire {
                rank: l,
                attempt,
                granted,
            };
            (acquire, Value::Int(0))
        }
        SpecialOp::LockRelease => {
            let l = args[0].as_int() as usize;
            if elided(l) {
                return Ok(Step::Value(Value::Int(0)));
            }
            let held = sub.unlock(w, l);
            if let Some(wd) = wd {
                wd.released(w, l);
            }
            (EventKind::LockRelease { rank: l, held }, Value::Int(0))
        }
        SpecialOp::QueuePush => {
            let q = sec.queue(args)?;
            sub.delay(w, inj.queue_stall_delay());
            let got = sub.push(w, q, args[1].to_bits())?;
            block(log, got.blocked);
            let Some(m) = got.done else {
                return Ok(Step::Wait(Park::Push(q)));
            };
            let push = EventKind::QueuePush {
                queue: args[0].as_int(),
                attempt: m.attempt,
                occupancy: m.occupancy,
            };
            (push, Value::Int(0))
        }
        SpecialOp::QueuePop { float } => {
            let q = sec.queue(args)?;
            sub.delay(w, inj.queue_stall_delay());
            let got = sub.pop(w, q)?;
            block(log, got.blocked);
            let Some(m) = got.done else {
                return Ok(Step::Wait(Park::Pop(q)));
            };
            let pop = EventKind::QueuePop {
                queue: args[0].as_int(),
                attempt: m.attempt,
                occupancy: m.occupancy,
            };
            (pop, Value::from_bits(m.bits, float))
        }
        SpecialOp::TxBegin => {
            let t = sub.tx_begin(w)?;
            lane.in_tx = true;
            if log.on {
                log.record(w, t, EventKind::TxBegin);
            }
            return Ok(Step::Value(Value::Int(0)));
        }
        SpecialOp::TxCommit => {
            if !lane.in_tx {
                return Err(ExecError::TxCommitWithoutBegin);
            }
            lane.in_tx = false;
            let aborts = sub.tx_commit(w);
            (EventKind::TxCommit { aborts }, Value::Int(0))
        }
        SpecialOp::ParInvoke => return Err(ExecError::NestedParallelSection),
        SpecialOp::World => {
            // Delta fast path: a call whose whole slot footprint is
            // merge-declared runs against the worker-private buffer, with
            // no lock, no shard and no channel serialization.
            let route = lane
                .delta
                .as_mut()
                .and_then(|buf| Some((sec.registry.delta_route(call.name, args)?, buf)));
            let start = sub.now(w);
            let (value, channel_waits) = match route {
                Some((slots, buf)) => {
                    let out = buf.apply(sec.registry, call.name, args, &slots);
                    sub.private(w, call, &out);
                    (out.value, Vec::new())
                }
                None => match sub.world(w, call) {
                    Some(done) => done,
                    None => return Ok(Step::Wait(Park::World)),
                },
            };
            if log.on {
                let world = EventKind::WorldCall {
                    intrinsic: call.name.to_string(),
                    args: args.to_vec(),
                    start,
                    channel_waits,
                };
                log.record(w, sub.now(w), world);
            }
            return Ok(Step::Value(value));
        }
    };
    if log.on {
        log.record(w, sub.now(w), kind);
    }
    Ok(Step::Value(value))
}

/// A worker's VM, started on its stage function; with `watch` it reports
/// region entries and exits.
pub fn worker_vm<'m>(
    module: &'m Module,
    bc: &'m BcModule,
    w: &WorkerSpec,
    watch: bool,
) -> Result<BcVm<'m>, ExecError> {
    let mut vm = BcVm::for_name(module, bc, &w.func, &[Value::Int(w.tid), Value::Int(w.nt)])?;
    if watch {
        vm.watch_calls_matching("__commset_region_");
    }
    Ok(vm)
}

/// The plan of the section `__par_invoke(args[0])` opens, journaled as the
/// run's `ord`-th section, starting at `t`.
pub(crate) fn open_section<'p>(
    plans: &'p [ParallelPlan],
    args: &[Value],
    cfg: &ExecConfig,
    ord: usize,
    t: u64,
) -> Result<&'p ParallelPlan, ExecError> {
    let section = args[0].as_int();
    let plan = plans
        .iter()
        .find(|pl| pl.section == section)
        .ok_or(ExecError::UnknownSection { section })?;
    if let Some(j) = &cfg.journal {
        j.record(JournalEvent {
            section: Some(ord as u64),
            ..JournalEvent::new("section_start", t)
                .field("plan_section", section.to_string())
                .field("workers", plan.workers.len().to_string())
        });
    }
    Ok(plan)
}

/// Journals the end of the run's `ord`-th section at `t`.
pub(crate) fn close_section(cfg: &ExecConfig, ord: usize, t: u64) {
    if let Some(j) = &cfg.journal {
        j.record(JournalEvent {
            section: Some(ord as u64),
            ..JournalEvent::new("section_end", t)
        });
    }
}

/// Folds the finished per-worker delta buffers, given in worker-index
/// order, through `merge` (which returns the slots it merged), and
/// observes each buffer's merge size into `metrics` when given. An
/// injected poison fails the coalesce as a contained worker failure.
pub(crate) fn coalesce(
    bufs: impl IntoIterator<Item = DeltaBuffer>,
    injector: &FaultInjector,
    mut metrics: Option<&mut MetricsRegistry>,
    mut merge: impl FnMut(DeltaBuffer) -> u64,
) -> Result<DeltaSnapshot, ExecError> {
    let mut delta = DeltaSnapshot::default();
    for buf in bufs {
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
        let slots = merge(buf);
        delta.merged_slots += slots;
        if let Some(m) = metrics.as_deref_mut() {
            m.observe("delta.merge_slots", slots);
        }
    }
    Ok(delta)
}

/// A run's observability: the finished sections' projection and
/// metadata, and every retired op when metrics are on.
pub(crate) struct Observed {
    /// Spans, trace and metric families of the finished sections.
    pub proj: Projection,
    /// The finished sections' metadata, when telemetry is on.
    metas: Option<Vec<SectionMeta>>,
    /// Opcode and block retires, when metrics are on.
    pub retires: Option<MetricsLocal>,
}

impl Observed {
    pub(crate) fn new(clock: ClockUnit, cfg: &ExecConfig) -> Self {
        Observed {
            proj: Projection::new(clock, cfg.telemetry),
            metas: cfg.telemetry.then(Vec::new),
            retires: cfg.metrics.then(MetricsLocal::new),
        }
    }

    /// Records one retired op at `site` (sampled before the step).
    pub(crate) fn retire(&mut self, bc: &BcModule, site: Option<(u32, u32)>, cost: u64) {
        if let (Some(r), Some(site)) = (self.retires.as_mut(), site) {
            r.retire(bc, site, cost);
        }
    }

    /// Projects the events of `plan`, the run's `ord`-th section, with its
    /// per-queue `(full, empty)` spins and `(start, end)` span.
    pub(crate) fn section(
        &mut self,
        plan: &ParallelPlan,
        ord: usize,
        queue_spins: Vec<(u64, u64)>,
        span: (u64, u64),
        channels: &[String],
        events: Vec<Event>,
    ) {
        let meta = SectionMeta {
            section: ord,
            stage_desc: plan.stage_desc.clone(),
            worker_stage: plan.workers.iter().map(|w| w.stage).collect(),
            locks: plan.locks.iter().map(|l| l.set.clone()).collect(),
            queues: plan.queues.iter().map(|q| (q.id, q.what.clone())).collect(),
            queue_spins,
            span,
        };
        self.proj.section(&meta, channels, events);
        if let Some(metas) = self.metas.as_mut() {
            metas.push(meta);
        }
    }

    /// The run's report and metrics registry. The registry gets the
    /// retires and the substrate counters, and is journaled at `t`. The
    /// DES passes its queue model's push count: it publishes its TM
    /// model's commits and its empty pops as `queue.empty_pops`. On real
    /// threads the empty count is the rings' `queue.empty_spins`, and
    /// `tm.commits` is already a projection of the events.
    pub(crate) fn finish(
        mut self,
        module: &Module,
        bc: &BcModule,
        cfg: &ExecConfig,
        c: RunCounters,
        t: u64,
        des_pushes: Option<u64>,
    ) -> (Option<RunReport>, Option<MetricsRegistry>) {
        let telemetry = self
            .metas
            .take()
            .map(|metas| self.proj.report(metas, c.clone()));
        let metrics = self.retires.map(|r| {
            let mut reg = std::mem::take(&mut self.proj.metrics);
            r.publish(module, bc, &mut reg);
            let (s, d) = (&c.shard, &c.delta);
            for (name, n) in [
                ("shard.fast_acquires", s.fast_acquires),
                ("shard.fast_waits", s.fast_waits),
                ("shard.multi_acquires", s.multi_acquires),
                ("shard.whole_acquires", s.whole_acquires),
                ("queue.full_spins", c.queue_full_spins),
                ("queue.drained", c.queue_drained),
                ("delta.applies", d.applies),
                ("delta.coalesces", d.coalesces),
                ("delta.merged_slots", d.merged_slots),
                ("delta.lock_elisions", d.lock_elisions),
                ("tm.aborts", c.tm_aborts),
                ("tm.fallbacks", c.tm_fallbacks),
            ] {
                reg.inc(name, n);
            }
            match des_pushes {
                Some(pushes) => {
                    reg.inc("tm.commits", c.tm_commits);
                    reg.inc("queue.pushes", pushes);
                    reg.inc("queue.empty_pops", c.queue_empty_spins);
                }
                None => reg.inc("queue.empty_spins", c.queue_empty_spins),
            }
            if let Some(j) = &cfg.journal {
                j.record_metrics(t, &reg);
            }
            reg
        });
        (telemetry, metrics)
    }
}
