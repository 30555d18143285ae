//! Poison-recovering synchronization primitives (std-backed).
//!
//! The workspace builds on air-gapped hosts, so these wrap
//! [`std::sync`] rather than an external crate. They differ from the std
//! types in one deliberate way: **lock poisoning is recovered, not
//! propagated**. A worker that panics while holding a lock must not take
//! the whole run down with a `PoisonError` — panic containment is the
//! executors' job (see `commset-interp`'s `thread_exec`), and the shared
//! structures these locks guard (the virtual world, the watchdog graph)
//! are left in a consistent state by construction: every critical section
//! either completes its mutation or the containing executor discards the
//! run's output and reports a `WorkerFailed` error.

use std::ops::{Deref, DerefMut};

/// A mutual-exclusion lock that recovers from poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Creates a lock around `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the lock, recovering the value even if poisoned.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Attempts to acquire without blocking; `None` when held.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

// Audit note: the `expect`s below are not poison paths (poisoning is
// recovered at acquisition, above). The inner Option is `None` only while
// `Condvar::wait`/`wait_timeout` holds the guard by `&mut` with the inner
// std guard moved out, so no `Deref` can observe the gap — these are
// statically unreachable, kept as `expect` purely to name the invariant.

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard taken only inside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard taken only inside Condvar::wait")
    }
}

/// A condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Blocks until notified, atomically releasing the guard's lock.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
    }

    /// Blocks until notified or the timeout elapses; returns `false` on
    /// timeout.
    pub fn wait_timeout<T>(&self, guard: &mut MutexGuard<'_, T>, dur: std::time::Duration) -> bool {
        let inner = guard.0.take().expect("guard present");
        let (inner, res) = self
            .0
            .wait_timeout(inner, dur)
            .unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
        !res.timed_out()
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_exclusion() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(7i32));
        let m2 = Arc::clone(&m);
        let r = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert!(r.is_err());
        // A std mutex would now return Err(PoisonError); ours recovers.
        assert_eq!(*m.lock(), 7);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_signals_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_timeout_expires() {
        let pair = (Mutex::new(()), Condvar::new());
        let mut g = pair.0.lock();
        let signaled = pair
            .1
            .wait_timeout(&mut g, std::time::Duration::from_millis(10));
        assert!(!signaled, "nobody notifies; must time out");
    }
}
