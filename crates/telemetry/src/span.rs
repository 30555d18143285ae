//! Spans: the timed projection of a run's event stream.
//!
//! A [`SpanRecord`] is one timed interval (or instant, when
//! `start == end`) of one worker's execution inside one parallel section.
//! The executors do not write spans; they record events
//! ([`crate::event`]), and the section's [`crate::event::Projection`]
//! pairs them into spans. Timestamps are monotonic nanoseconds since the
//! run's epoch on real threads and deterministic logical ticks under the
//! simulator; the [`crate::report::RunReport`] records which unit applies.

/// What one span measures.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanKind {
    /// One worker's whole lifetime inside a section (spawn to exit).
    Worker,
    /// One commutative-region instance execution.
    Region {
        /// The outlined region function, e.g. `__commset_region_1`.
        func: String,
    },
    /// Time spent *waiting* to acquire a CommSet lock.
    LockWait {
        /// Lock index == rank in the section's plan.
        rank: usize,
    },
    /// Time the lock was *held* (acquire grant to release).
    LockHold {
        /// Lock index == rank in the section's plan.
        rank: usize,
    },
    /// Producer blocked publishing to a full pipeline queue.
    QueuePushWait {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// Consumer blocked on an empty pipeline queue.
    QueuePopWait {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// One completed queue push (an instant: `start == end`).
    QueuePush {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// One completed queue pop (an instant: `start == end`).
    QueuePop {
        /// Queue id from the parallel plan.
        queue: i64,
    },
    /// One transaction window, begin to commit completion.
    Tx {
        /// Optimistic aborts suffered before this commit resolved.
        aborts: u64,
    },
    /// One world-intrinsic execution.
    WorldCall {
        /// Intrinsic name.
        intrinsic: String,
    },
}

impl SpanKind {
    /// Stable short label (Chrome event name / report row key).
    pub fn label(&self) -> String {
        match self {
            SpanKind::Worker => "worker".to_string(),
            SpanKind::Region { func } => func.clone(),
            SpanKind::LockWait { rank } => format!("lock-wait #{rank}"),
            SpanKind::LockHold { rank } => format!("lock-hold #{rank}"),
            SpanKind::QueuePushWait { queue } => format!("push-wait q{queue}"),
            SpanKind::QueuePopWait { queue } => format!("pop-wait q{queue}"),
            SpanKind::QueuePush { queue } => format!("push q{queue}"),
            SpanKind::QueuePop { queue } => format!("pop q{queue}"),
            SpanKind::Tx { aborts } => format!("tx (aborts={aborts})"),
            SpanKind::WorldCall { intrinsic } => format!("call {intrinsic}"),
        }
    }

    /// Chrome trace category for this span.
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Worker => "worker",
            SpanKind::Region { .. } => "region",
            SpanKind::LockWait { .. } | SpanKind::LockHold { .. } => "lock",
            SpanKind::QueuePushWait { .. }
            | SpanKind::QueuePopWait { .. }
            | SpanKind::QueuePush { .. }
            | SpanKind::QueuePop { .. } => "queue",
            SpanKind::Tx { .. } => "stm",
            SpanKind::WorldCall { .. } => "world",
        }
    }

    /// True when the span counts toward a worker's *blocked* time.
    pub fn is_blocking(&self) -> bool {
        matches!(
            self,
            SpanKind::LockWait { .. }
                | SpanKind::QueuePushWait { .. }
                | SpanKind::QueuePopWait { .. }
        )
    }
}

/// One timed interval of one worker inside one section.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Ordinal of the parallel section within the run (execution order).
    pub section: usize,
    /// Worker index within the section.
    pub worker: usize,
    /// Start timestamp (nanoseconds or logical ticks).
    pub start: u64,
    /// End timestamp; `start == end` marks an instant event.
    pub end: u64,
    /// What was measured.
    pub kind: SpanKind,
}

impl SpanRecord {
    /// The span's duration in its clock unit.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Sorts spans by `(section, worker, start, end)`, keeping the recording
/// order of ties, so reports built from the same events are identical
/// however worker buffers interleaved.
pub fn canonical_order(spans: &mut [SpanRecord]) {
    spans.sort_by_key(|s| (s.section, s.worker, s.start, s.end));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_merge_and_take_orders_canonically() {
        let span = |worker: usize, start: u64, end: u64, kind: SpanKind| SpanRecord {
            section: 0,
            worker,
            start,
            end,
            kind,
        };
        // Worker 1's buffer arrived before worker 0's; the two instants of
        // worker 0 at tick 4 keep their recording order.
        let mut spans = vec![
            span(1, 5, 9, SpanKind::Worker),
            span(0, 4, 4, SpanKind::QueuePush { queue: 1 }),
            span(0, 2, 3, SpanKind::LockWait { rank: 0 }),
            span(0, 4, 4, SpanKind::QueuePop { queue: 2 }),
        ];
        canonical_order(&mut spans);
        let order: Vec<(usize, String)> =
            spans.iter().map(|s| (s.worker, s.kind.label())).collect();
        assert_eq!(
            order,
            [
                (0, "lock-wait #0".to_string()),
                (0, "push q1".to_string()),
                (0, "pop q2".to_string()),
                (1, "worker".to_string()),
            ]
        );
    }

    #[test]
    fn kind_labels_and_blocking_classification() {
        assert_eq!(SpanKind::LockWait { rank: 2 }.label(), "lock-wait #2");
        assert_eq!(SpanKind::QueuePop { queue: 7 }.label(), "pop q7");
        assert!(SpanKind::QueuePushWait { queue: 1 }.is_blocking());
        assert!(!SpanKind::LockHold { rank: 1 }.is_blocking());
        assert!(!SpanKind::Worker.is_blocking());
        assert_eq!(SpanKind::Tx { aborts: 3 }.category(), "stm");
    }

    #[test]
    fn instant_spans_have_zero_duration() {
        let s = SpanRecord {
            section: 0,
            worker: 0,
            start: 10,
            end: 10,
            kind: SpanKind::QueuePush { queue: 0 },
        };
        assert_eq!(s.dur(), 0);
    }
}
