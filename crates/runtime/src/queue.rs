//! Lock-free bounded single-producer/single-consumer ring buffer.
//!
//! This is the software queue of the DSWP family (paper §4.5): dependences
//! between pipeline stages "are communicated via lock-free queues in
//! software". One producer thread pushes, one consumer thread pops; both
//! ends are wait-free except when full/empty.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A bounded SPSC queue over `Copy` elements.
///
/// # Safety contract
///
/// At most one thread may push concurrently and at most one thread may pop
/// concurrently. The type is `Sync`, so this is enforced by convention (the
/// executor assigns exactly one producer and one consumer stage per queue,
/// which the plan's queue topology guarantees). The cached index fields
/// below lean on the same contract: `tail_cache` is touched only by the
/// producer, `head_cache` only by the consumer.
pub struct SpscQueue<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    /// Next slot to write (only advanced by the producer).
    head: AtomicUsize,
    /// Next slot to read (only advanced by the consumer).
    tail: AtomicUsize,
    /// Producer-private stale copy of `tail`. The producer only re-reads
    /// the shared `tail` (a cross-core cache miss) when the cached copy
    /// says the queue *looks* full — in the common case a push touches no
    /// consumer-written cache line.
    tail_cache: Cell<usize>,
    /// Consumer-private stale copy of `head`, symmetric to `tail_cache`.
    head_cache: Cell<usize>,
    /// Failed pushes (queue observed genuinely full). A producer retrying
    /// a full queue increments this once per attempt, so the counter
    /// doubles as a producer-side contention gauge.
    full_spins: AtomicU64,
    /// Failed pops (queue observed genuinely empty), symmetric.
    empty_spins: AtomicU64,
}

// SAFETY: the single-producer/single-consumer contract (documented above)
// makes independent head/tail advancement race-free; slots are published
// with release stores and consumed with acquire loads.
unsafe impl<T: Send> Sync for SpscQueue<T> {}
unsafe impl<T: Send> Send for SpscQueue<T> {}

impl<T: Copy> SpscQueue<T> {
    /// Creates a queue holding up to `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let buf: Vec<UnsafeCell<MaybeUninit<T>>> = (0..capacity + 1)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        SpscQueue {
            buf: buf.into_boxed_slice(),
            cap: capacity + 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            tail_cache: Cell::new(0),
            head_cache: Cell::new(0),
            full_spins: AtomicU64::new(0),
            empty_spins: AtomicU64::new(0),
        }
    }

    /// Number of elements currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        let h = self.head.load(Ordering::Acquire);
        let t = self.tail.load(Ordering::Acquire);
        (h + self.cap - t) % self.cap
    }

    /// True if currently empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.cap - 1
    }

    /// Attempts to push; returns `Err(v)` when full.
    pub fn try_push(&self, v: T) -> Result<(), T> {
        let h = self.head.load(Ordering::Relaxed);
        let next = (h + 1) % self.cap;
        // Fast path: the cached tail says there is room — no acquire load,
        // no touching the consumer's cache line.
        if next == self.tail_cache.get() {
            // Looks full: refresh the cache from the shared index.
            self.tail_cache.set(self.tail.load(Ordering::Acquire));
            if next == self.tail_cache.get() {
                self.full_spins.fetch_add(1, Ordering::Relaxed);
                return Err(v); // genuinely full
            }
        }
        // SAFETY: single producer; slot `h` is not visible to the consumer
        // until the head is advanced below.
        unsafe {
            (*self.buf[h].get()).write(v);
        }
        self.head.store(next, Ordering::Release);
        Ok(())
    }

    /// Attempts to pop; returns `None` when empty.
    pub fn try_pop(&self) -> Option<T> {
        let t = self.tail.load(Ordering::Relaxed);
        // Fast path: the cached head says there is data.
        if t == self.head_cache.get() {
            self.head_cache.set(self.head.load(Ordering::Acquire));
            if t == self.head_cache.get() {
                self.empty_spins.fetch_add(1, Ordering::Relaxed);
                return None; // genuinely empty
            }
        }
        // SAFETY: single consumer; the producer published slot `t` with a
        // release store on head.
        let v = unsafe { (*self.buf[t].get()).assume_init() };
        self.tail.store((t + 1) % self.cap, Ordering::Release);
        Some(v)
    }

    /// Pushes as many leading elements of `vs` as currently fit, with a
    /// **single** release store for the whole batch. Returns how many were
    /// enqueued (0 when full).
    ///
    /// This is the DSWP batching primitive: a producer stage that stages
    /// `k` queue writes locally and publishes them with one `push_n` pays
    /// one cross-core publication instead of `k`.
    pub fn push_n(&self, vs: &[T]) -> usize {
        if vs.is_empty() {
            return 0;
        }
        let h = self.head.load(Ordering::Relaxed);
        let free_for = |t: usize| (t + self.cap - h - 1) % self.cap;
        // Refresh the cached tail only when it cannot satisfy the batch.
        if free_for(self.tail_cache.get()) < vs.len() {
            self.tail_cache.set(self.tail.load(Ordering::Acquire));
        }
        let n = free_for(self.tail_cache.get()).min(vs.len());
        if n == 0 {
            self.full_spins.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        for (k, v) in vs[..n].iter().enumerate() {
            // SAFETY: single producer; slots `h..h+n` are free (checked
            // against tail above) and unpublished until the store below.
            unsafe {
                (*self.buf[(h + k) % self.cap].get()).write(*v);
            }
        }
        self.head.store((h + n) % self.cap, Ordering::Release);
        n
    }

    /// Pops up to `max` elements into `out` with a **single** release
    /// store for the whole batch. Returns how many were appended (0 when
    /// empty).
    pub fn pop_n(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let t = self.tail.load(Ordering::Relaxed);
        let avail_for = |h: usize| (h + self.cap - t) % self.cap;
        // Refresh the cached head only when it shows nothing to take.
        if avail_for(self.head_cache.get()) == 0 {
            self.head_cache.set(self.head.load(Ordering::Acquire));
        }
        let n = avail_for(self.head_cache.get()).min(max);
        if n == 0 {
            self.empty_spins.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        out.reserve(n);
        for k in 0..n {
            // SAFETY: single consumer; slots `t..t+n` were published by
            // the producer's release store on head.
            out.push(unsafe { (*self.buf[(t + k) % self.cap].get()).assume_init() });
        }
        self.tail.store((t + n) % self.cap, Ordering::Release);
        n
    }

    /// Contention counters: `(full_spins, empty_spins)` — how often a
    /// push found the queue full and a pop found it empty.
    pub fn contention(&self) -> (u64, u64) {
        (
            self.full_spins.load(Ordering::Relaxed),
            self.empty_spins.load(Ordering::Relaxed),
        )
    }

    /// Pops, spinning while empty, unless `cancel` becomes true.
    ///
    /// Returns `None` when canceled — the containment path for a consumer
    /// whose producer died.
    pub fn pop_canceling(&self, cancel: &std::sync::atomic::AtomicBool) -> Option<T> {
        use std::sync::atomic::Ordering;
        let mut spins = 0u32;
        loop {
            if let Some(v) = self.try_pop() {
                return Some(v);
            }
            if cancel.load(Ordering::Relaxed) {
                return None;
            }
            backoff(&mut spins);
        }
    }

    /// Pops everything currently queued (consumer side only), returning
    /// the number of elements discarded. Used when tearing down a failed
    /// parallel section so producers blocked on a full queue can finish.
    pub fn drain(&self) -> usize {
        let mut n = 0;
        while self.try_pop().is_some() {
            n += 1;
        }
        n
    }
}

fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 32 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let q = SpscQueue::new(4);
        assert!(q.is_empty());
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        assert!(q.try_push(99).is_err(), "full");
        for i in 0..4 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn wraps_around() {
        let q = SpscQueue::new(2);
        for round in 0..10 {
            q.try_push(round * 2).unwrap();
            q.try_push(round * 2 + 1).unwrap();
            assert_eq!(q.try_pop(), Some(round * 2));
            assert_eq!(q.try_pop(), Some(round * 2 + 1));
        }
    }

    /// Publishes `vs` with `push_n`, yielding while the queue is full —
    /// the thread executor's producer side (`flush_staged`).
    fn push_all(q: &SpscQueue<u64>, vs: &[u64]) {
        let mut sent = 0;
        while sent < vs.len() {
            sent += q.push_n(&vs[sent..]);
            if sent < vs.len() {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn cross_thread_transfer_preserves_order_and_count() {
        // The thread executor's queue calls: one-value `push_n` publishes
        // on the producer, blocking `pop_canceling` on the consumer.
        let q = Arc::new(SpscQueue::new(8));
        let n = 10_000u64;
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..n {
                    push_all(&q, &[i]);
                }
            })
        };
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let cancel = AtomicBool::new(false);
                for expected in 0..n {
                    assert_eq!(q.pop_canceling(&cancel), Some(expected));
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SpscQueue::<u64>::new(0);
    }

    #[test]
    fn len_is_pinned_at_full_and_empty() {
        let q = SpscQueue::new(3);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.contention(), (0, 0));
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 3, "len == capacity when full");
        assert_eq!(q.capacity(), 3);
        assert!(q.try_push(9).is_err());
        assert_eq!(q.len(), 3, "failed push leaves len unchanged");
        assert_eq!(q.contention().0, 1, "failed push counted");
        q.drain();
        assert_eq!(q.len(), 0, "len == 0 when empty");
        assert!(q.try_pop().is_none());
        assert_eq!(q.len(), 0, "failed pop leaves len unchanged");
        assert!(q.contention().1 >= 1, "failed pop counted");
    }

    #[test]
    fn batch_ops_wrap_around_the_capacity_boundary() {
        // Capacity 5 ⇒ ring of 6 slots. Repeated partial batches force
        // every wrap alignment of head/tail across the boundary.
        let q = SpscQueue::new(5);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        let mut out = Vec::new();
        for round in 0..50 {
            let batch: Vec<u64> = (0..1 + (round % 4) as u64).map(|k| next_in + k).collect();
            let before = q.len();
            let pushed = q.push_n(&batch);
            assert_eq!(pushed, batch.len().min(5 - before), "exactly fills");
            next_in += pushed as u64;
            let want = 1 + (round % 3);
            let popped = q.pop_n(&mut out, want);
            assert!(popped <= want);
            for v in out.drain(..) {
                assert_eq!(v, next_out, "FIFO across wrap");
                next_out += 1;
            }
        }
        // Drain the tail end.
        while q.pop_n(&mut out, 8) > 0 {
            for v in out.drain(..) {
                assert_eq!(v, next_out);
                next_out += 1;
            }
        }
        assert_eq!(next_out, next_in, "nothing lost or duplicated");
        assert!(q.is_empty());
    }

    #[test]
    fn push_n_is_partial_when_short_on_space_and_zero_when_full() {
        let q = SpscQueue::new(4);
        assert_eq!(q.push_n(&[1, 2, 3, 4, 5, 6]), 4, "clamped to free space");
        assert_eq!(q.push_n(&[7]), 0, "full");
        assert_eq!(q.contention().0, 1);
        assert_eq!(q.push_n(&[]), 0, "empty batch is a no-op");
        let mut out = Vec::new();
        assert_eq!(q.pop_n(&mut out, 10), 4);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(q.pop_n(&mut out, 1), 0, "empty");
        assert_eq!(q.pop_n(&mut out, 0), 0, "zero max is a no-op");
    }

    /// Seeded stress on the thread executor's queue calls: a producer
    /// mixing `push_n` batches with one-value publishes races a consumer
    /// mixing `pop_n` batches with blocking `pop_canceling` pops, across a
    /// small ring that forces constant wrap-around. The stream must come
    /// out exact: in order, nothing lost, nothing duplicated.
    #[test]
    fn interleaved_batch_and_scalar_ops_across_two_threads_are_exact() {
        use crate::rng::SplitMix64;
        for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003] {
            let q = Arc::new(SpscQueue::new(7));
            let n = 6_000u64;
            let producer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(seed);
                    let mut i = 0u64;
                    while i < n {
                        // One value a third of the time, else a batch.
                        let take = match rng.next_u64() % 3 {
                            0 => 1,
                            _ => (1 + rng.next_u64() % 5).min(n - i),
                        };
                        let batch: Vec<u64> = (i..i + take).collect();
                        push_all(&q, &batch);
                        i += take;
                    }
                })
            };
            let consumer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let cancel = AtomicBool::new(false);
                    let mut rng = SplitMix64::new(seed ^ 0xc0ffee);
                    let mut expected = 0u64;
                    let mut buf = Vec::new();
                    while expected < n {
                        match rng.next_u64() % 3 {
                            0 => {
                                let v = q.pop_canceling(&cancel);
                                assert_eq!(v, Some(expected), "seed {seed:#x}");
                                expected += 1;
                            }
                            _ => {
                                let want = 1 + (rng.next_u64() % 6) as usize;
                                q.pop_n(&mut buf, want);
                                for v in buf.drain(..) {
                                    assert_eq!(v, expected, "seed {seed:#x}");
                                    expected += 1;
                                }
                            }
                        }
                    }
                })
            };
            producer.join().unwrap();
            consumer.join().unwrap();
            assert!(q.is_empty(), "seed {seed:#x}: residue");
        }
    }

    #[test]
    fn canceling_ops_unblock_and_report() {
        let q = Arc::new(SpscQueue::<u64>::new(2));
        let cancel = Arc::new(AtomicBool::new(false));
        // A consumer blocked on the empty queue returns `None` once
        // canceled — the containment path for a consumer whose producer
        // died.
        let consumer = {
            let q = Arc::clone(&q);
            let cancel = Arc::clone(&cancel);
            std::thread::spawn(move || q.pop_canceling(&cancel))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        cancel.store(true, Ordering::Relaxed);
        assert_eq!(consumer.join().unwrap(), None, "canceled pop gives up");
        // Queued data still wins over a raised cancel flag.
        q.try_push(7).unwrap();
        assert_eq!(q.pop_canceling(&cancel), Some(7));
        assert_eq!(q.pop_canceling(&cancel), None);
        // Uncanceled fast path.
        cancel.store(false, Ordering::Relaxed);
        q.try_push(9).unwrap();
        assert_eq!(q.pop_canceling(&cancel), Some(9));
    }
}
