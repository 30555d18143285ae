//! The transactional retry discipline.
//!
//! The paper's optimistic synchronization mode (§4.6, "via Intel's
//! transactional memory runtime") is modeled by the discrete-event
//! simulator (`commset-sim`'s `TmModel`): a transaction that aborts backs
//! off and redoes its work, and one that keeps aborting escalates to the
//! rank-0 global lock, which is pessimistic but guaranteed to commit.
//! [`BackoffPolicy`] holds the two knobs of that discipline. The
//! real-thread executor runs TM sections under one pessimistic lock and
//! never aborts, so it reads neither knob.

/// Retry discipline of a modeled transaction.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// Consecutive aborts tolerated before escalating to the rank-0
    /// global lock. `0` escalates on the first abort.
    pub max_aborts: u32,
    /// Spin cycles of the first backoff window; the window doubles per
    /// abort.
    pub base_spins: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_aborts: 8,
            base_spins: 16,
        }
    }
}
