//! Contention-aware simulated locks.

use crate::cost::CostModel;

/// Lock discipline being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimLockKind {
    /// Busy-waiting spin lock.
    Spin,
    /// Sleeping mutex.
    Mutex,
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// Granted: the thread holds the lock from the given time.
    Granted(u64),
    /// Someone else holds the lock: the thread must block and retry after
    /// the next release.
    Held,
}

/// A simulated lock.
///
/// The release time of the current holder is not known at request time (it
/// depends on how long the critical section runs), so a request against a
/// held lock *blocks*; the executor retries it after the release, paying
/// the contention penalty then.
#[derive(Debug, Clone)]
pub struct SimLock {
    /// Spin or mutex.
    pub kind: SimLockKind,
    /// True while a thread is inside its critical section.
    pub held: bool,
    /// Time at which the last release completed.
    pub free_at: u64,
    /// Threads currently blocked on this lock (drives the spin penalty).
    pub pending: u64,
    /// Total contended acquisitions (statistics).
    pub contended_count: u64,
    /// Total acquisitions (statistics).
    pub acquire_count: u64,
}

impl SimLock {
    /// Creates a free lock.
    pub fn new(kind: SimLockKind) -> Self {
        SimLock {
            kind,
            held: false,
            free_at: 0,
            pending: 0,
            contended_count: 0,
            acquire_count: 0,
        }
    }

    /// A thread requests the lock at time `t`. `was_blocked` is true when
    /// this is a retry after blocking (it pays the contention penalty).
    pub fn try_acquire(&mut self, t: u64, was_blocked: bool, cm: &CostModel) -> AcquireOutcome {
        if self.held {
            return AcquireOutcome::Held;
        }
        self.acquire_count += 1;
        let start = t.max(self.free_at);
        let grant = if was_blocked {
            self.contended_count += 1;
            match self.kind {
                // Spinning threads bounce the cache line: the handoff gets
                // slower the more threads wait.
                SimLockKind::Spin => {
                    start + cm.lock_acquire + cm.spin_contended * (self.pending + 1)
                }
                // A sleeping thread pays the wakeup path.
                SimLockKind::Mutex => start + cm.lock_acquire + cm.mutex_wakeup,
            }
        } else {
            start + cm.lock_acquire
        };
        self.held = true;
        AcquireOutcome::Granted(grant)
    }

    /// One attempt of a thread at `t`; `waiting` is the thread's own flag
    /// that an earlier attempt was refused. A refused first attempt joins
    /// the waiters (raising the spin penalty) and sets the flag; a granted
    /// retry leaves them and clears it. Returns the grant time, or `None`
    /// when refused.
    pub fn request(&mut self, t: u64, waiting: &mut bool, cm: &CostModel) -> Option<u64> {
        match self.try_acquire(t, *waiting, cm) {
            AcquireOutcome::Granted(grant) => {
                if std::mem::take(waiting) {
                    self.pending = self.pending.saturating_sub(1);
                }
                Some(grant)
            }
            AcquireOutcome::Held => {
                if !*waiting {
                    self.pending += 1;
                    *waiting = true;
                }
                None
            }
        }
    }

    /// The holder releases at time `t`; returns the release completion
    /// time for the releasing thread.
    pub fn release(&mut self, t: u64, cm: &CostModel) -> u64 {
        debug_assert!(self.held, "release of free lock");
        let done = t + cm.lock_release;
        self.free_at = done;
        self.held = false;
        done
    }

    /// Fraction of acquisitions that were contended.
    pub fn contention_ratio(&self) -> f64 {
        if self.acquire_count == 0 {
            0.0
        } else {
            self.contended_count as f64 / self.acquire_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_track_their_own_waiting() {
        let cm = CostModel::default();
        let mut l = SimLock::new(SimLockKind::Spin);
        let (mut a, mut b) = (false, false);
        let t = l.request(0, &mut a, &cm).expect("free lock grants");
        assert_eq!(l.request(5, &mut b, &cm), None, "held");
        assert_eq!(l.request(6, &mut b, &cm), None, "still held");
        assert!(b && l.pending == 1, "one waiter, counted once");
        let free = l.release(t, &cm);
        let regrant = l.request(free, &mut b, &cm).expect("released");
        assert!(!b && l.pending == 0);
        assert!(
            regrant > free + cm.lock_acquire,
            "a retry pays the contention penalty"
        );
    }

    fn grant(o: AcquireOutcome) -> u64 {
        match o {
            AcquireOutcome::Granted(t) => t,
            AcquireOutcome::Held => panic!("expected grant"),
        }
    }

    #[test]
    fn uncontended_acquire_is_cheap() {
        let cm = CostModel::default();
        let mut l = SimLock::new(SimLockKind::Spin);
        let g = grant(l.try_acquire(100, false, &cm));
        assert_eq!(g, 100 + cm.lock_acquire);
        let r = l.release(g + 10, &cm);
        assert_eq!(r, g + 10 + cm.lock_release);
        assert_eq!(l.contention_ratio(), 0.0);
    }

    #[test]
    fn held_lock_blocks_until_release() {
        let cm = CostModel::default();
        let mut l = SimLock::new(SimLockKind::Spin);
        let g1 = grant(l.try_acquire(0, false, &cm));
        // Second thread must block while the holder works.
        assert_eq!(l.try_acquire(10, false, &cm), AcquireOutcome::Held);
        let r1 = l.release(g1 + 500, &cm);
        // Retry after the release is granted, after the release completed.
        let g2 = grant(l.try_acquire(10, true, &cm));
        assert!(g2 >= r1, "critical sections must not overlap: {g2} < {r1}");
    }

    #[test]
    fn contended_mutex_pays_wakeup() {
        let cm = CostModel::default();
        let mut l = SimLock::new(SimLockKind::Mutex);
        let g1 = grant(l.try_acquire(0, false, &cm));
        let r1 = l.release(g1 + 50, &cm);
        let g2 = grant(l.try_acquire(10, true, &cm));
        assert!(g2 >= r1 + cm.mutex_wakeup, "g2={g2} r1={r1}");
        assert!(l.contention_ratio() > 0.4);
    }

    #[test]
    fn spin_penalty_grows_with_waiters() {
        let cm = CostModel::default();
        let mut l = SimLock::new(SimLockKind::Spin);
        let g0 = grant(l.try_acquire(0, false, &cm));
        l.release(g0 + 100, &cm);
        l.pending = 1;
        let g1 = grant(l.try_acquire(1, true, &cm));
        l.release(g1 + 100, &cm);
        let base1 = g1;
        l.pending = 5;
        let g2 = grant(l.try_acquire(2, true, &cm));
        assert!(g2 - l.free_at > base1 - 100, "more waiters, slower handoff");
    }
}
