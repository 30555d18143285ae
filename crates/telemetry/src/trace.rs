//! Execution traces: the readable projection of a run's event stream.
//!
//! A trace lists, in order, which commutative-region instances entered
//! and exited on which worker, which locks were taken at which rank,
//! which queue operations moved pipeline values, and which world
//! intrinsics fired. The executors do not write traces themselves: every
//! run with `ExecConfig::telemetry` on records one event stream
//! ([`crate::event`]), and [`RunReport::trace`](crate::RunReport::trace)
//! is derived from it.
//!
//! Under the DES the trace is in emission order and fully deterministic
//! (logical ticks); under real threads each section's records are in
//! timestamp order (monotonic nanoseconds since the run's start, the
//! same epoch the spans use), so each worker's subsequence is monotonic.
//! The schedule goldens (`tests/des_schedule.rs`) pin DES traces.

use commset_runtime::Value;

/// One observable event of a parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A watched (commutative-region) function was entered.
    RegionEnter {
        /// The outlined region function, e.g. `__commset_region_1`.
        func: String,
        /// The region instance arguments (the CommSet instance key).
        args: Vec<Value>,
    },
    /// A watched function returned.
    RegionExit {
        /// The outlined region function.
        func: String,
    },
    /// A rank-ordered lock was acquired.
    LockAcquire {
        /// Lock index (== rank in the section's plan).
        lock: usize,
    },
    /// A rank-ordered lock was released.
    LockRelease {
        /// Lock index.
        lock: usize,
    },
    /// A pipeline queue push completed.
    QueuePush {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// A pipeline queue pop completed.
    QueuePop {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// A world intrinsic executed.
    WorldCall {
        /// Intrinsic name.
        intrinsic: String,
        /// Evaluated arguments.
        args: Vec<Value>,
    },
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn args_str(args: &[Value]) -> String {
            args.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        }
        match self {
            TraceEvent::RegionEnter { func, args } => {
                write!(f, "enter {func}({})", args_str(args))
            }
            TraceEvent::RegionExit { func } => write!(f, "exit  {func}"),
            TraceEvent::LockAcquire { lock } => write!(f, "lock+ #{lock}"),
            TraceEvent::LockRelease { lock } => write!(f, "lock- #{lock}"),
            TraceEvent::QueuePush { queue } => write!(f, "push  q{queue}"),
            TraceEvent::QueuePop { queue } => write!(f, "pop   q{queue}"),
            TraceEvent::WorldCall { intrinsic, args } => {
                write!(f, "call  {intrinsic}({})", args_str(args))
            }
        }
    }
}

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Position in the run's trace (counts trace records only).
    pub seq: u64,
    /// Worker index within the section.
    pub worker: usize,
    /// Worker-local time (simulated clock or nanoseconds).
    pub time: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Pretty-prints a record stream, one event per line, for failure reports.
pub fn render(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "  [{seq:>4}] {worker:<5} t={time:<8} {event}\n",
            seq = r.seq,
            worker = format!("w{}", r.worker),
            time = r.time,
            event = r.event
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable() {
        let rec = |seq: u64, time: u64, event: TraceEvent| TraceRecord {
            seq,
            worker: 0,
            time,
            event,
        };
        let text = render(&[
            rec(
                0,
                0,
                TraceEvent::RegionEnter {
                    func: "__commset_region_1".into(),
                    args: vec![Value::Int(3)],
                },
            ),
            rec(
                1,
                4,
                TraceEvent::RegionExit {
                    func: "__commset_region_1".into(),
                },
            ),
        ]);
        assert_eq!(
            text,
            "  [   0] w0    t=0        enter __commset_region_1(3)\n  \
             [   1] w0    t=4        exit  __commset_region_1\n"
        );
    }
}
