//! Offline shim for `crossbeam`: MPSC channels re-exported under the
//! `crossbeam::channel` API shape this workspace uses, plus a bounded
//! lock-free MPMC ring under `crossbeam::queue::ArrayQueue`.

pub mod queue {
    //! Bounded lock-free queues mirroring `crossbeam::queue`.

    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::ops::Deref;
    use std::sync::atomic::{fence, AtomicUsize, Ordering};

    /// A counter on a 128-byte-aligned line of its own, as upstream's
    /// `CachePadded` keeps `head` and `tail`: the consumer CASes one and
    /// the producer the other, so on a shared line every push would evict
    /// the popping core's copy and every pop the pushing core's. 128, not
    /// 64: x86's spatial prefetcher fetches lines in adjacent pairs.
    #[repr(align(128))]
    struct Padded(AtomicUsize);

    impl Deref for Padded {
        type Target = AtomicUsize;

        fn deref(&self) -> &AtomicUsize {
            &self.0
        }
    }

    /// One ring slot. `stamp` tracks the slot's lifecycle against the
    /// lap-encoded `head`/`tail` counters (see [`ArrayQueue`]): a slot is
    /// writable by the push holding ticket `t` iff `stamp == t`, becomes
    /// readable when the writer bumps it to `t + 1`, and is re-armed for
    /// the next lap's writer when the reader advances it a whole lap.
    struct Slot<T> {
        stamp: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// A bounded lock-free multi-producer multi-consumer queue
    /// (Vyukov-style ring buffer), API-compatible with upstream
    /// `crossbeam::queue::ArrayQueue`.
    ///
    /// `head` and `tail` pack `lap * one_lap + index` into one counter,
    /// with `one_lap = (cap + 1).next_power_of_two()`. The `+ 1` keeps a
    /// written slot's stamp (`ticket + 1`) from ever colliding with the
    /// next lap's write ticket (`ticket + one_lap`) — the classic
    /// capacity-1 ambiguity of plain modular tickets. Each operation
    /// claims its ticket with one CAS and then touches only its own
    /// slot. Neither side ever blocks: `push` on a full ring returns the
    /// value back and `pop` on an empty ring returns `None`.
    pub struct ArrayQueue<T> {
        /// Next pop ticket (`lap * one_lap + index`).
        head: Padded,
        /// Next push ticket (`lap * one_lap + index`).
        tail: Padded,
        buffer: Box<[Slot<T>]>,
        cap: usize,
        one_lap: usize,
    }

    unsafe impl<T: Send> Send for ArrayQueue<T> {}
    unsafe impl<T: Send> Sync for ArrayQueue<T> {}

    impl<T> ArrayQueue<T> {
        /// Create a queue holding at most `cap` items.
        ///
        /// # Panics
        /// Panics if `cap` is zero.
        #[must_use]
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "ArrayQueue capacity must be non-zero");
            let buffer: Box<[Slot<T>]> = (0..cap)
                .map(|i| Slot {
                    stamp: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect();
            ArrayQueue {
                head: Padded(AtomicUsize::new(0)),
                tail: Padded(AtomicUsize::new(0)),
                buffer,
                cap,
                one_lap: (cap + 1).next_power_of_two(),
            }
        }

        /// Attempt to enqueue; returns `Err(value)` when the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut tail = self.tail.load(Ordering::Relaxed);
            loop {
                let index = tail & (self.one_lap - 1);
                let lap = tail & !(self.one_lap - 1);
                let slot = &self.buffer[index];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == tail {
                    // Slot is ours to claim this lap.
                    let next_tail = if index + 1 < self.cap {
                        tail + 1
                    } else {
                        lap.wrapping_add(self.one_lap)
                    };
                    match self.tail.compare_exchange_weak(
                        tail,
                        next_tail,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            unsafe { (*slot.value.get()).write(value) };
                            slot.stamp.store(tail + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(current) => tail = current,
                    }
                } else if stamp.wrapping_add(self.one_lap) == tail + 1 {
                    // The slot still holds last lap's value. Full only if
                    // head also trails by a whole lap; otherwise that pop
                    // is mid-flight — yield (on a single hardware thread
                    // a pure spin would burn the whole time slice the
                    // peer needs to finish).
                    fence(Ordering::SeqCst);
                    let head = self.head.load(Ordering::Relaxed);
                    if head.wrapping_add(self.one_lap) == tail {
                        return Err(value);
                    }
                    std::thread::yield_now();
                    tail = self.tail.load(Ordering::Relaxed);
                } else {
                    // Our ticket view is stale — reload and retry.
                    std::thread::yield_now();
                    tail = self.tail.load(Ordering::Relaxed);
                }
            }
        }

        /// Attempt to dequeue; returns `None` when the queue is empty.
        pub fn pop(&self) -> Option<T> {
            let mut head = self.head.load(Ordering::Relaxed);
            loop {
                let index = head & (self.one_lap - 1);
                let lap = head & !(self.one_lap - 1);
                let slot = &self.buffer[index];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == head + 1 {
                    // Slot holds a value written for this lap.
                    let next_head = if index + 1 < self.cap {
                        head + 1
                    } else {
                        lap.wrapping_add(self.one_lap)
                    };
                    match self.head.compare_exchange_weak(
                        head,
                        next_head,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            let value = unsafe { (*slot.value.get()).assume_init_read() };
                            slot.stamp
                                .store(head.wrapping_add(self.one_lap), Ordering::Release);
                            return Some(value);
                        }
                        Err(current) => head = current,
                    }
                } else if stamp == head {
                    // Slot not written this lap. Empty only if tail
                    // hasn't moved past us; otherwise a push is
                    // mid-flight — yield so the writer can finish.
                    fence(Ordering::SeqCst);
                    let tail = self.tail.load(Ordering::Relaxed);
                    if tail == head {
                        return None;
                    }
                    std::thread::yield_now();
                    head = self.head.load(Ordering::Relaxed);
                } else {
                    // Our ticket view is stale — reload and retry.
                    std::thread::yield_now();
                    head = self.head.load(Ordering::Relaxed);
                }
            }
        }

        /// Number of items currently buffered (consistent snapshot).
        #[must_use]
        pub fn len(&self) -> usize {
            loop {
                let tail = self.tail.load(Ordering::SeqCst);
                let head = self.head.load(Ordering::SeqCst);
                // Re-read tail: if unchanged, (head, tail) is a consistent
                // pair and the difference is exact at that instant.
                if self.tail.load(Ordering::SeqCst) == tail {
                    let hix = head & (self.one_lap - 1);
                    let tix = tail & (self.one_lap - 1);
                    return if hix < tix {
                        tix - hix
                    } else if hix > tix {
                        self.cap - hix + tix
                    } else if tail == head {
                        0
                    } else {
                        self.cap
                    };
                }
            }
        }

        /// Whether the queue holds no items.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Whether the queue is at capacity.
        #[must_use]
        pub fn is_full(&self) -> bool {
            self.len() == self.cap
        }

        /// Maximum number of buffered items.
        #[must_use]
        pub fn capacity(&self) -> usize {
            self.cap
        }
    }

    impl<T> Drop for ArrayQueue<T> {
        fn drop(&mut self) {
            while self.pop().is_some() {}
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Arc;

        #[test]
        fn fifo_single_thread() {
            let q = ArrayQueue::new(4);
            for i in 0..4 {
                q.push(i).unwrap();
            }
            assert_eq!(q.push(99), Err(99));
            assert!(q.is_full());
            for i in 0..4 {
                assert_eq!(q.pop(), Some(i));
            }
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
        }

        #[test]
        fn wraps_around_many_laps() {
            let q = ArrayQueue::new(3);
            for i in 0..1000 {
                q.push(i).unwrap();
                assert_eq!(q.pop(), Some(i));
            }
            assert!(q.is_empty());
            assert_eq!(q.capacity(), 3);
        }

        #[test]
        fn capacity_one() {
            let q = ArrayQueue::new(1);
            q.push(7).unwrap();
            assert_eq!(q.push(8), Err(8));
            assert_eq!(q.pop(), Some(7));
            assert_eq!(q.pop(), None);
            q.push(9).unwrap();
            assert_eq!(q.pop(), Some(9));
        }

        #[test]
        fn per_producer_fifo_under_contention() {
            const PRODUCERS: u64 = 4;
            const PER: u64 = 5_000;
            let q = Arc::new(ArrayQueue::new(8));
            let mut handles = Vec::new();
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                handles.push(std::thread::spawn(move || {
                    for i in 0..PER {
                        let mut item = p << 32 | i;
                        loop {
                            match q.push(item) {
                                Ok(()) => break,
                                Err(back) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                }));
            }
            let mut last = vec![None; PRODUCERS as usize];
            let mut seen = 0u64;
            while seen < PRODUCERS * PER {
                if let Some(item) = q.pop() {
                    let (p, i) = ((item >> 32) as usize, item & 0xffff_ffff);
                    if let Some(prev) = last[p] {
                        assert!(i > prev, "producer {p} reordered: {i} after {prev}");
                    }
                    last[p] = Some(i);
                    seen += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            for h in handles {
                h.join().unwrap();
            }
            assert!(q.is_empty());
        }

        #[test]
        fn mpmc_conserves_items() {
            const PRODUCERS: usize = 3;
            const CONSUMERS: usize = 3;
            const PER: usize = 4_000;
            let q = Arc::new(ArrayQueue::new(16));
            let produced = Arc::new(AtomicUsize::new(0));
            let consumed_sum = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..PRODUCERS {
                let (q, produced) = (Arc::clone(&q), Arc::clone(&produced));
                handles.push(std::thread::spawn(move || {
                    for _ in 0..PER {
                        let v = produced.fetch_add(1, Ordering::Relaxed) + 1;
                        let mut item = v;
                        while let Err(back) = q.push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                }));
            }
            let total: usize = (1..=PRODUCERS * PER).sum();
            let taken = Arc::new(AtomicUsize::new(0));
            for _ in 0..CONSUMERS {
                let (q, sum, taken) = (
                    Arc::clone(&q),
                    Arc::clone(&consumed_sum),
                    Arc::clone(&taken),
                );
                handles.push(std::thread::spawn(move || loop {
                    if taken.load(Ordering::Relaxed) >= PRODUCERS * PER {
                        break;
                    }
                    if let Some(v) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        taken.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(consumed_sum.load(Ordering::Relaxed), total);
            assert!(q.is_empty());
        }

        #[test]
        fn drop_releases_buffered_items() {
            let counter = Arc::new(AtomicUsize::new(0));
            struct Probe(Arc<AtomicUsize>);
            impl Drop for Probe {
                fn drop(&mut self) {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
            let q = ArrayQueue::new(8);
            for _ in 0..5 {
                assert!(q.push(Probe(Arc::clone(&counter))).is_ok());
            }
            drop(q.pop());
            assert_eq!(counter.load(Ordering::Relaxed), 1);
            drop(q);
            assert_eq!(counter.load(Ordering::Relaxed), 5);
        }
    }
}

pub mod channel {
    use std::sync::mpsc;

    /// Sending half of an unbounded channel (clonable).
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    /// Error returned when the channel is disconnected on send.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned when the channel is empty and disconnected on recv.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl<T> Sender<T> {
        /// Send a value; errors only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value).map_err(|e| SendError(e.0))
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, RecvError> {
            self.0.try_recv().map_err(|_| RecvError)
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_across_threads() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            std::thread::spawn(move || tx2.send(7).unwrap());
            assert_eq!(rx.recv(), Ok(7));
            drop(tx);
            assert!(rx.recv().is_err());
        }
    }
}
