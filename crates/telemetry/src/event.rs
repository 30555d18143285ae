//! The executors' one observability event stream, and its projections.
//!
//! Both parallel executors record each observable event of a section
//! once, as an [`Event`], behind one enable check (`ExecConfig::telemetry`
//! or `ExecConfig::metrics`). The DES keeps one [`EventLog`] per section
//! in emission order; the thread executor keeps one per worker and the
//! section merges them in timestamp order. At section end a
//! [`Projection`] derives everything the observability layer reports:
//!
//! * **spans** ([`SpanRecord`]) for the [`RunReport`](crate::RunReport)
//!   and the Chrome export, by pairing enter/exit, acquire/release,
//!   block/grant and begin/commit events per worker;
//! * **trace records** ([`TraceRecord`]), the seven [`TraceEvent`] kinds;
//! * **metric families** in a [`MetricsRegistry`]: `lock_wait.<set>`,
//!   `queue_occupancy.<id>`, `channel_wait.<channel>`, and on measured
//!   clocks `world_call.<intrinsic>` and `tm.commits`.
//!
//! The clock decides the two rules on which the executors differ. On
//! modeled ticks a zero-tick lock wait is no wait and is dropped; on
//! measured nanoseconds every acquisition is a wait sample. World-call
//! durations and commit counts are metrics only on measured clocks (the
//! DES reports its TM model's commit count itself).

use crate::metrics::MetricsRegistry;
use crate::report::{ClockUnit, RunCounters, RunReport, SectionMeta};
use crate::span::{SpanKind, SpanRecord};
use crate::trace::{TraceEvent, TraceRecord};
use commset_runtime::Value;

/// What happened. Each event has one timestamp ([`Event::time`]); the
/// few kinds whose span and trace times differ carry the other time.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A watched commutative-region function was entered.
    RegionEnter {
        /// The outlined region function.
        func: String,
        /// The region instance arguments.
        args: Vec<Value>,
    },
    /// A watched function returned.
    RegionExit {
        /// The outlined region function.
        func: String,
    },
    /// A lock or queue request could not proceed: the worker waits from
    /// here until its next lock grant, push or pop. Repeats before that
    /// completion are ignored.
    Block,
    /// A lock was granted at `granted`; the worker holds it from the
    /// event's time. With no open [`EventKind::Block`] the wait started
    /// at `attempt`.
    LockAcquire {
        /// Lock index == rank in the section's plan.
        rank: usize,
        /// When the granted request was made.
        attempt: u64,
        /// When the lock was granted.
        granted: u64,
    },
    /// A lock was released at the event's time (after the release
    /// cost); it was held until `held`.
    LockRelease {
        /// Lock index == rank.
        rank: usize,
        /// End of the hold.
        held: u64,
    },
    /// A push completed at the event's time. An open
    /// [`EventKind::Block`] ends at `attempt`, the start of the
    /// completing attempt.
    QueuePush {
        /// Queue id from the parallel plan.
        queue: i64,
        /// Start of the completing attempt.
        attempt: u64,
        /// Items in the queue after the push.
        occupancy: u64,
    },
    /// A pop completed at the event's time; as [`EventKind::QueuePush`].
    QueuePop {
        /// Queue id from the parallel plan.
        queue: i64,
        /// Start of the completing attempt.
        attempt: u64,
        /// Items in the queue after the pop.
        occupancy: u64,
    },
    /// A transaction began.
    TxBegin,
    /// The open transaction committed after `aborts` optimistic aborts.
    TxCommit {
        /// Aborts before the commit.
        aborts: u64,
    },
    /// A world intrinsic ran from `start` to the event's time.
    WorldCall {
        /// Intrinsic name.
        intrinsic: String,
        /// Evaluated arguments.
        args: Vec<Value>,
        /// When the call started.
        start: u64,
        /// `(channel id, delay)` for each serialized channel that alone
        /// would have delayed the call (modeled channels only).
        channel_waits: Vec<(usize, u64)>,
    },
    /// The worker exited; it was spawned at `spawned`.
    WorkerExit {
        /// Spawn time.
        spawned: u64,
    },
}

/// One timestamped event of one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Worker index within the section.
    pub worker: usize,
    /// Ticks under the DES, nanoseconds since the run's start on threads.
    pub time: u64,
    /// What happened.
    pub kind: EventKind,
}

/// An append-only event buffer: one per section under the DES, one per
/// worker on real threads.
#[derive(Debug, Default)]
pub struct EventLog {
    /// The enable check every event site consults before recording.
    pub on: bool,
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log; `on` is false when no observability is wanted.
    pub fn new(on: bool) -> Self {
        EventLog {
            on,
            events: Vec::new(),
        }
    }

    /// Appends one event.
    pub fn record(&mut self, worker: usize, time: u64, kind: EventKind) {
        self.events.push(Event { worker, time, kind });
    }

    /// Removes and returns the recorded events in recording order.
    pub fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}

/// A worker's unpaired events while its section is projected.
#[derive(Default)]
struct Open {
    block: Option<u64>,
    regions: Vec<(String, u64)>,
    held: Vec<(usize, u64)>,
    tx: u64,
}

/// The run-wide results derived from every section's events.
#[derive(Debug, Default)]
pub struct Projection {
    clock: ClockUnit,
    telemetry: bool,
    /// Spans, when telemetry is on.
    spans: Vec<SpanRecord>,
    /// The trace, when telemetry is on.
    trace: Vec<TraceRecord>,
    /// The metric families (always derived; attached when metrics are on).
    pub metrics: MetricsRegistry,
}

impl Projection {
    /// An empty projection for a run on `clock`; spans and the trace are
    /// derived only when `telemetry` is set.
    pub fn new(clock: ClockUnit, telemetry: bool) -> Self {
        Projection {
            clock,
            telemetry,
            ..Projection::default()
        }
    }

    /// Derives spans, trace records and metrics from one section's
    /// events, given in order. `meta` names the section's locks;
    /// `channels` names channel ids.
    pub fn section(&mut self, meta: &SectionMeta, channels: &[String], events: Vec<Event>) {
        let measured = self.clock == ClockUnit::Nanos;
        let mut open: Vec<Open> = Vec::new();
        for Event { worker, time, kind } in events {
            if open.len() <= worker {
                open.resize_with(worker + 1, Open::default);
            }
            let o = &mut open[worker];
            let (tel, spans) = (self.telemetry, &mut self.spans);
            let mut span = |start: u64, end: u64, kind: SpanKind| {
                if tel {
                    spans.push(SpanRecord {
                        section: meta.section,
                        worker,
                        start,
                        end,
                        kind,
                    });
                }
            };
            let traced = match kind {
                EventKind::RegionEnter { func, args } => {
                    o.regions.push((func.clone(), time));
                    TraceEvent::RegionEnter { func, args }
                }
                EventKind::RegionExit { func } => {
                    if let Some((f, t0)) = o.regions.pop() {
                        span(t0, time, SpanKind::Region { func: f });
                    }
                    TraceEvent::RegionExit { func }
                }
                EventKind::Block => {
                    o.block.get_or_insert(time);
                    continue;
                }
                EventKind::LockAcquire {
                    rank,
                    attempt,
                    granted,
                } => {
                    let from = o.block.take().unwrap_or(attempt);
                    if measured || granted > from {
                        span(from, granted, SpanKind::LockWait { rank });
                        let set = meta.locks.get(rank).map_or("", String::as_str);
                        self.metrics
                            .observe(&format!("lock_wait.{set}"), granted.saturating_sub(from));
                    }
                    o.held.push((rank, time));
                    TraceEvent::LockAcquire { lock: rank }
                }
                EventKind::LockRelease { rank, held } => {
                    if let Some(k) = o.held.iter().position(|(r, _)| *r == rank) {
                        let (_, t0) = o.held.swap_remove(k);
                        span(t0, held, SpanKind::LockHold { rank });
                    }
                    TraceEvent::LockRelease { lock: rank }
                }
                EventKind::QueuePush {
                    queue,
                    attempt,
                    occupancy,
                } => {
                    if let Some(bs) = o.block.take() {
                        span(bs, attempt, SpanKind::QueuePushWait { queue });
                    }
                    span(time, time, SpanKind::QueuePush { queue });
                    self.metrics
                        .observe(&format!("queue_occupancy.{queue}"), occupancy);
                    TraceEvent::QueuePush { queue }
                }
                EventKind::QueuePop {
                    queue,
                    attempt,
                    occupancy,
                } => {
                    if let Some(bs) = o.block.take() {
                        span(bs, attempt, SpanKind::QueuePopWait { queue });
                    }
                    span(time, time, SpanKind::QueuePop { queue });
                    self.metrics
                        .observe(&format!("queue_occupancy.{queue}"), occupancy);
                    TraceEvent::QueuePop { queue }
                }
                EventKind::TxBegin => {
                    o.tx = time;
                    continue;
                }
                EventKind::TxCommit { aborts } => {
                    span(o.tx, time, SpanKind::Tx { aborts });
                    if measured {
                        self.metrics.inc("tm.commits", 1);
                    }
                    continue;
                }
                EventKind::WorldCall {
                    intrinsic,
                    args,
                    start,
                    channel_waits,
                } => {
                    for (c, wait) in channel_waits {
                        let chan = channels.get(c).map_or("", String::as_str);
                        self.metrics.observe(&format!("channel_wait.{chan}"), wait);
                    }
                    if measured {
                        self.metrics.observe(
                            &format!("world_call.{intrinsic}"),
                            time.saturating_sub(start),
                        );
                    }
                    let kind = SpanKind::WorldCall {
                        intrinsic: intrinsic.clone(),
                    };
                    span(start, time, kind);
                    TraceEvent::WorldCall { intrinsic, args }
                }
                EventKind::WorkerExit { spawned } => {
                    span(spawned, time, SpanKind::Worker);
                    continue;
                }
            };
            if self.telemetry {
                self.trace.push(TraceRecord {
                    seq: self.trace.len() as u64,
                    worker,
                    time,
                    event: traced,
                });
            }
        }
    }

    /// The run's report over `sections`: the spans in canonical order
    /// (see [`crate::span::canonical_order`]) and the trace.
    pub fn report(&mut self, sections: Vec<SectionMeta>, counters: RunCounters) -> RunReport {
        let mut spans = std::mem::take(&mut self.spans);
        crate::span::canonical_order(&mut spans);
        RunReport {
            trace: std::mem::take(&mut self.trace),
            ..RunReport::build(self.clock, spans, sections, counters)
        }
    }
}
