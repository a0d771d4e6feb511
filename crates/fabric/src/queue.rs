//! Event queue and payload pool for the discrete-event kernel.
//!
//! The kernel schedules hundreds of events per simulated site; at the
//! 10k-site scale the `BinaryHeap` that served Austrian-Grid-sized runs
//! becomes the hot path (every push/pop is O(log n) over the whole queue,
//! and cancellations accumulate in an unbounded side set). This module
//! provides:
//!
//! * [`EventKey`] — the ordering key `(at, seq)` plus the pool slot that
//!   holds the payload. Payloads never move through the queue, only keys.
//! * [`EventPool`] — a pre-sized slab of payload slots with a free list,
//!   so steady-state scheduling allocates nothing.
//! * [`CalendarQueue`] — a classic circular calendar/bucket queue
//!   (Brown 1988): bucket `i` holds every key whose day index
//!   `at / width` is `≡ i (mod buckets)`, the dispatch walk steps day by
//!   day, and the ring resizes with occupancy. Amortized O(1) push/pop
//!   at stable event horizons, with no separate overflow tier to transit.
//! * [`EventQueue`] — the kernel-facing enum over the calendar queue and
//!   the reference `BinaryHeap`, so benchmarks can flip implementations
//!   with one flag ([`SchedulerKind`]).
//!
//! # Determinism
//!
//! Dispatch order is *exactly* the total order of `(at, seq)` in both
//! implementations: the calendar queue's bucket geometry (width, bucket
//! count, walk position) only affects *where* a key waits, never *when*
//! it pops relative to another key. Every key of a given day lives in
//! exactly one bucket, sorted there by a min-heap on `(at, seq)`; the
//! walk visits days in increasing order and only dispatches keys due
//! within the current day, so the first dispatchable key it finds is the
//! global minimum. Resizes rebuild the ring from the same key set, and
//! heap insertion order cannot change heap pop order for fully-ordered
//! unique keys. Hence same-seed runs are byte-identical whichever
//! scheduler is selected.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Which event-queue implementation the kernel uses.
///
/// `Calendar` is the default; `BinaryHeap` is the pre-existing reference
/// implementation kept for A/B measurement (the perf ledger's
/// `fabric.queue.heap_*`) and as the oracle in equivalence tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Circular calendar/bucket queue (amortized O(1)).
    #[default]
    Calendar,
    /// Global binary min-heap (O(log n) per operation).
    BinaryHeap,
}

/// Ordering key of one scheduled event.
///
/// `seq` is unique per simulation, so `(at, seq)` is a total order and
/// `slot` never participates in comparisons (it trails in the derived
/// lexicographic order but can never be reached).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EventKey {
    /// Simulated due time.
    pub at: SimTime,
    /// Kernel-wide schedule sequence number (tie-breaker).
    pub seq: u64,
    /// Index of the payload in the [`EventPool`].
    pub slot: u32,
}

/// Pre-sized slab of event payloads with a free list.
///
/// Slots are reclaimed at pop time — including tombstoned (cancelled)
/// slots, which keeps occupancy bounded by the number of *pending*
/// events no matter how cancel-heavy the workload is.
#[derive(Debug)]
pub struct EventPool<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> EventPool<T> {
    /// Pool with `cap` pre-allocated slots.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        EventPool {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
        }
    }

    /// Store a payload, returning its slot index.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none(), "free slot occupied");
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event pool exceeds u32 slots");
                self.slots.push(Some(value));
                slot
            }
        }
    }

    /// Remove and return the payload, releasing the slot to the free list.
    ///
    /// # Panics
    /// Panics if the slot is vacant (double pop / bad key).
    pub(crate) fn take(&mut self, slot: u32) -> T {
        let value = self.slots[slot as usize]
            .take()
            .expect("event pool slot already vacant");
        self.free.push(slot);
        value
    }

    /// The payload a slot holds now, if any. A [`crate::sim::TimerToken`]
    /// outlives its event, so its slot may be vacant, re-let, or past the
    /// end of another simulation's pool.
    pub(crate) fn get(&self, slot: u32) -> Option<&T> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Replace a live payload in place (tombstoning a cancelled timer drops
    /// its original payload immediately; the slot itself is reclaimed when
    /// the key pops).
    ///
    /// # Panics
    /// Panics if the slot is vacant.
    pub(crate) fn replace(&mut self, slot: u32, value: T) -> T {
        self.slots[slot as usize]
            .replace(value)
            .expect("event pool slot vacant on replace")
    }

    /// Number of live (occupied) slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Smallest allowed bucket count (also the initial count).
const MIN_BUCKETS: usize = 16;
/// Largest allowed bucket count.
const MAX_BUCKETS: usize = 1 << 20;
/// Initial/fallback bucket width: ~1 ms in nanoseconds (power of two so
/// day arithmetic is a shift, not a division).
const DEFAULT_WIDTH: u64 = 1 << 20;

/// Circular calendar/bucket event queue.
///
/// Time is divided into `width`-ns *days*; day `d` (the keys with
/// `at / width == d`) lives in bucket `d % buckets.len()`, so the ring
/// wraps around indefinitely — a key any number of *years* (ring spans)
/// ahead already sits in its residue bucket and simply waits for the
/// dispatch walk to come around to its day. The walk (`cursor`,
/// `bucket_end`) visits days in increasing order and dispatches only
/// keys due before `bucket_end`, stepping to the next bucket otherwise;
/// a walk that crosses a whole empty year falls back to a direct
/// min-scan jump. Pushes are O(heap of one bucket), pops amortized O(1),
/// and — unlike a windowed calendar with an overflow heap — no key ever
/// migrates between tiers on its way to dispatch.
#[derive(Debug)]
pub struct CalendarQueue {
    buckets: Vec<BinaryHeap<Reverse<EventKey>>>,
    /// Day width (ns); always a power of two, so `at / width` is
    /// `at >> shift` and `day % buckets` is a mask. Performance-only,
    /// never affects order.
    width: u64,
    /// `width.trailing_zeros()`, cached for the hot paths.
    shift: u32,
    /// Bucket the dispatch walk is currently on.
    cursor: usize,
    /// Absolute end (ns, exclusive) of the walk's current day.
    bucket_end: u64,
    /// Total pending keys.
    len: usize,
    /// EWMA of inter-pop time gaps (ns), the width estimate for resizes.
    ewma_gap: u64,
    /// Due time of the most recent pop (ns).
    last_pop: u64,
}

impl CalendarQueue {
    /// Empty queue, ring pre-sized for roughly `expected` concurrent events.
    pub(crate) fn with_expected(expected: usize) -> Self {
        let nb = expected
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        CalendarQueue {
            buckets: (0..nb).map(|_| BinaryHeap::new()).collect(),
            width: DEFAULT_WIDTH,
            shift: DEFAULT_WIDTH.trailing_zeros(),
            cursor: 0,
            bucket_end: DEFAULT_WIDTH,
            len: 0,
            ewma_gap: DEFAULT_WIDTH,
            last_pop: 0,
        }
    }

    /// Total pending keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Residue bucket of a due time (bucket count is a power of two).
    fn bucket_of(&self, at_ns: u64) -> usize {
        ((at_ns >> self.shift) as usize) & (self.buckets.len() - 1)
    }

    /// Exclusive end of the day containing `at_ns`.
    fn day_end(&self, at_ns: u64) -> u64 {
        ((at_ns >> self.shift) << self.shift).saturating_add(self.width)
    }

    /// Insert a key.
    ///
    /// The kernel never schedules into the *past* (before the last
    /// dispatch), but a peek at a sparse queue may have advanced the
    /// walk far beyond the clock — an event injected "now" can land on
    /// an earlier day than the walk's. Rewinding to that day keeps the
    /// walk's invariant (no pending key is due before the current day).
    pub(crate) fn push(&mut self, key: EventKey) {
        let at = key.at.as_nanos();
        let idx = self.bucket_of(at);
        self.buckets[idx].push(Reverse(key));
        self.len += 1;
        if at < self.bucket_end.saturating_sub(self.width) {
            self.cursor = idx;
            self.bucket_end = self.day_end(at);
        }
        let nb = self.buckets.len();
        if self.len > nb * 2 && nb < MAX_BUCKETS {
            self.rebuild(nb * 2);
        }
    }

    /// Advance the dispatch walk to the bucket whose top key is due in
    /// the walk's current day — that key is the global `(at, seq)`
    /// minimum, because each day maps to exactly one bucket and days are
    /// visited in increasing order (a bucket top due in a *later* year
    /// proves the bucket holds nothing for the current day). Amortized
    /// O(1); a walk crossing a whole year without a hit jumps straight
    /// to the earliest key instead.
    fn settle(&mut self) {
        debug_assert!(self.len > 0, "settle on empty queue");
        let nb = self.buckets.len();
        for _ in 0..=nb {
            if let Some(&Reverse(k)) = self.buckets[self.cursor].peek() {
                if k.at.as_nanos() < self.bucket_end {
                    return;
                }
            }
            self.cursor = (self.cursor + 1) % nb;
            self.bucket_end = self.bucket_end.saturating_add(self.width);
        }
        // Sparse stretch (next key more than a year out): scan the
        // bucket tops for the global minimum and jump to its day.
        let k = self
            .buckets
            .iter()
            .filter_map(|b| b.peek())
            .map(|&Reverse(k)| k)
            .min()
            .expect("len > 0 but no bucket top");
        let at = k.at.as_nanos();
        self.cursor = self.bucket_of(at);
        self.bucket_end = self.day_end(at);
    }

    /// Earliest key without removing it (may advance the walk).
    pub(crate) fn peek(&mut self) -> Option<EventKey> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        self.buckets[self.cursor].peek().map(|Reverse(k)| *k)
    }

    /// Remove and return the earliest key.
    pub(crate) fn pop(&mut self) -> Option<EventKey> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let Reverse(key) = self.buckets[self.cursor].pop().expect("settled on nonempty");
        self.len -= 1;
        let at = key.at.as_nanos();
        let gap = at.saturating_sub(self.last_pop);
        self.last_pop = at;
        // Integer EWMA (α = 1/8) of inter-pop gaps steers the bucket
        // width so a day holds only a handful of events.
        self.ewma_gap = (self.ewma_gap.saturating_mul(7) / 8).saturating_add(gap / 8).max(1);
        if self.len * 8 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.buckets.len() / 2);
        }
        Some(key)
    }

    /// Rebuild the ring with `nb` buckets and a fresh width estimate,
    /// redistributing every pending key and restarting the walk at the
    /// earliest one. O(n), amortized against the occupancy change that
    /// triggered it.
    fn rebuild(&mut self, nb: usize) {
        let nb = nb.clamp(MIN_BUCKETS, MAX_BUCKETS);
        let mut keys: Vec<EventKey> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            keys.extend(b.drain().map(|Reverse(k)| k));
        }
        if self.buckets.len() != nb {
            self.buckets.resize_with(nb, BinaryHeap::new);
        }
        // A few mean inter-pop gaps per day, rounded up to a power of
        // two: wide enough that a year (nb × width) spans the live
        // horizon, narrow enough that the per-bucket heaps stay tiny.
        self.width = self
            .ewma_gap
            .saturating_mul(4)
            .max(1)
            .checked_next_power_of_two()
            .unwrap_or(1 << 63);
        self.shift = self.width.trailing_zeros();
        let start = keys
            .iter()
            .map(|k| k.at.as_nanos())
            .min()
            .unwrap_or(self.last_pop);
        self.cursor = self.bucket_of(start);
        self.bucket_end = self.day_end(start);
        for k in keys {
            let idx = self.bucket_of(k.at.as_nanos());
            self.buckets[idx].push(Reverse(k));
        }
    }
}

/// Kernel-facing queue: calendar by default, binary heap for ablations.
#[derive(Debug)]
pub enum EventQueue {
    /// Calendar/bucket queue.
    Calendar(CalendarQueue),
    /// Reference binary min-heap.
    Heap(BinaryHeap<Reverse<EventKey>>),
}

impl EventQueue {
    /// New queue of the given kind, pre-sized for `expected` events.
    pub fn new(kind: SchedulerKind, expected: usize) -> Self {
        match kind {
            SchedulerKind::Calendar => EventQueue::Calendar(CalendarQueue::with_expected(expected)),
            SchedulerKind::BinaryHeap => EventQueue::Heap(BinaryHeap::with_capacity(expected)),
        }
    }

    /// Insert a key.
    pub fn push(&mut self, key: EventKey) {
        match self {
            EventQueue::Calendar(q) => q.push(key),
            EventQueue::Heap(h) => h.push(Reverse(key)),
        }
    }

    /// Earliest key without removing it (may advance internal cursors).
    pub(crate) fn peek(&mut self) -> Option<EventKey> {
        match self {
            EventQueue::Calendar(q) => q.peek(),
            EventQueue::Heap(h) => h.peek().map(|Reverse(k)| *k),
        }
    }

    /// Remove and return the earliest key.
    pub fn pop(&mut self) -> Option<EventKey> {
        match self {
            EventQueue::Calendar(q) => q.pop(),
            EventQueue::Heap(h) => h.pop().map(|Reverse(k)| k),
        }
    }

    /// Pending keys.
    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.len(),
            EventQueue::Heap(h) => h.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn key(at_ns: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_nanos(at_ns),
            seq,
            slot: seq as u32,
        }
    }

    #[test]
    fn pool_reuses_slots() {
        let mut pool: EventPool<&'static str> = EventPool::with_capacity(4);
        let a = pool.insert("a");
        let b = pool.insert("b");
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.take(a), "a");
        let c = pool.insert("c");
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(pool.replace(b, "B"), "b");
        assert_eq!(pool.take(b), "B");
        assert_eq!(pool.take(c), "c");
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.slots.len(), 2, "two slots ever allocated");
    }

    #[test]
    #[should_panic(expected = "already vacant")]
    fn pool_double_take_panics() {
        let mut pool: EventPool<u8> = EventPool::with_capacity(1);
        let s = pool.insert(1);
        pool.take(s);
        pool.take(s);
    }

    #[test]
    fn calendar_orders_ties_by_seq() {
        let mut q = CalendarQueue::with_expected(4);
        q.push(key(50, 2));
        q.push(key(50, 1));
        q.push(key(10, 3));
        q.push(key(50, 0));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|k| k.seq).collect();
        assert_eq!(order, vec![3, 0, 1, 2]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn calendar_handles_far_future_and_rotation() {
        let mut q = CalendarQueue::with_expected(4);
        // Far beyond any initial window: must land in overflow, then pop
        // in order after a fast-forward rotation.
        q.push(key(u64::MAX - 1, 0));
        q.push(key(3_600_000_000_000, 1)); // 1 simulated hour
        q.push(key(5, 2));
        assert_eq!(q.peek().map(|k| k.seq), Some(2));
        assert_eq!(q.pop().map(|k| k.seq), Some(2));
        assert_eq!(q.pop().map(|k| k.seq), Some(1));
        assert_eq!(q.pop().map(|k| k.seq), Some(0));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn calendar_grows_and_shrinks() {
        let mut q = CalendarQueue::with_expected(MIN_BUCKETS);
        for i in 0..10_000u64 {
            q.push(key(i * 1000, i));
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "occupancy should grow the ring");
        let mut prev = None;
        let mut popped = 0u64;
        while let Some(k) = q.pop() {
            if let Some(p) = prev {
                assert!(p < (k.at, k.seq));
            }
            prev = Some((k.at, k.seq));
            popped += 1;
        }
        assert_eq!(popped, 10_000);
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "draining shrinks the ring back");
    }

    /// Satellite: randomized same-seed equivalence against the reference
    /// heap — interleaved pushes/pops with heavy `at` ties must dispatch
    /// byte-identically. (Cancellation tombstones are pool payloads, so at
    /// the key level equivalence covers them: a tombstoned key pops at the
    /// same position in both schedulers.)
    #[test]
    fn calendar_matches_binary_heap_reference() {
        for seed in 0..8u64 {
            let mut rng = SimRng::from_seed(seed).fork("queue-equivalence");
            let mut cal = EventQueue::new(SchedulerKind::Calendar, 16);
            let mut heap = EventQueue::new(SchedulerKind::BinaryHeap, 16);
            let mut seq = 0u64;
            let mut now = 0u64; // pushes are never in the past, as in the kernel
            for _ in 0..5_000 {
                let op = rng.range(0, 100);
                if op < 60 || cal.len() == 0 {
                    // Cluster times to force plenty of exact `at` ties and
                    // occasionally fling events far beyond the window.
                    let delta = match rng.range(0, 10) {
                        0 => 0,
                        1..=6 => rng.range(0, 50) * 1_000,
                        7..=8 => rng.range(0, 1_000_000),
                        _ => rng.range(0, 10) * 3_600_000_000_000,
                    };
                    let k = key(now + delta, seq);
                    seq += 1;
                    cal.push(k);
                    heap.push(k);
                } else {
                    assert_eq!(cal.peek(), heap.peek(), "seed {seed}");
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "seed {seed} diverged after {seq} pushes");
                    now = a.expect("nonempty").at.as_nanos();
                }
                assert_eq!(cal.len(), heap.len());
            }
            // Drain both completely.
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                assert_eq!(a, b, "seed {seed} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
