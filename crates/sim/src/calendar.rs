//! The future-event list.
//!
//! A classic calendar for discrete-event simulation: events are
//! scheduled at absolute instants and popped in time order. Events
//! scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO), which keeps runs deterministic — a requirement for
//! the reproducibility guarantees this repository makes about every
//! experiment.
//!
//! The calendar is a *radix heap* (Ahuja, Mehlhorn, Orlin & Tarjan,
//! 1990). A simulation clock never moves backwards and nothing is ever
//! scheduled before it, so the future-event list is a monotone priority
//! queue, which is exactly what a radix heap orders correctly. It sorts
//! by bit position instead of by comparison chains.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A packed 16-byte key: the firing time in the first word, then
/// `seq` (40 bits) over `slot` (24 bits) in the second. Ordering the
/// second word orders by `seq`; `seq` values are unique, so the slot
/// bits never decide a comparison. The packing bounds are asserted at
/// push: 2^40 events per run and 2^24 simultaneously pending events
/// are both orders of magnitude beyond what a simulation reaches.
type Key = (u64, u64);

const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

#[inline]
fn pack(at: SimTime, seq: u64, slot: u32) -> Key {
    assert!(seq < 1 << (64 - SLOT_BITS), "calendar seq overflow");
    assert!(slot < 1 << SLOT_BITS, "calendar slot overflow");
    (at.0, (seq << SLOT_BITS) | slot as u64)
}

/// The radix bucket of a key firing at `time` while the clock reads
/// `now` (`time > now`): the highest bit in which the two differ.
#[inline]
fn bucket_of(time: u64, now: u64) -> usize {
    debug_assert!(time > now);
    63 - (time ^ now).leading_zeros() as usize
}

/// The event calendar: a radix heap of `(time, seq, slot)` keys, a
/// slot arena holding the event payloads, and the simulation clock.
///
/// The clock only advances when an event is popped; scheduling in the
/// past is a logic error and panics.
///
/// # Radix invariant
///
/// A pending key due exactly at `now` sits in `now_q`; any other key
/// firing at `t > now` sits in `buckets[b]` with `b` the highest bit
/// in which `t` and `now` differ. Such a key agrees with `now` above
/// bit `b` and has bit `b` set where `now` has it clear, so every key
/// in a lower bucket fires before every key in a higher one, and the
/// lowest occupied bucket (one `trailing_zeros` of the `occupied`
/// mask) holds the earliest time.
///
/// When `now_q` runs dry, `next()` advances the clock to the minimum
/// time `m` of that lowest bucket `b` and redistributes it: keys at `m`
/// move to `now_q`, every other key agrees with `m` at and above bit
/// `b` and so lands in a strictly lower bucket. Keys in buckets above
/// `b` stay valid, because `m` agrees with the old clock at those bits.
/// Each key therefore moves at most 64 times over its life, and in a
/// simulation's narrow time window only a handful.
///
/// # FIFO ties
///
/// Every bucket, and `now_q`, is in `seq` order without ever being
/// sorted. A push appends the largest `seq` issued so far. A refill
/// walks one bucket front to back and appends into `now_q` and lower
/// buckets that are all empty (its bucket was the lowest occupied), so
/// each receives an ordered subsequence of an ordered list.
///
/// `now_q` holds the second key words (`seq << 24 | slot`) of every
/// pending event due at `now`, and every other pending key fires
/// strictly after `now`. Popping the front of `now_q` therefore pops in
/// exactly `(time, seq)` order: the same order as a binary heap over
/// the same keys.
///
/// # Allocation audit
///
/// Payloads sit out-of-line in `events`, a slot arena recycled through
/// a free list, so the buckets move 16-byte keys instead of full event
/// enums. A refill takes the bucket it drains, redistributes it and
/// puts the empty vector back, so every bucket keeps its capacity. The
/// steady-state schedule/pop cycle therefore performs **no per-event
/// heap allocation**: a push only allocates when a bucket, the slot
/// arena or `now_q` grows past its high-water mark, and those marks
/// are bounded by the simulation's maximum event population (a few
/// hundred entries at paper-scale MPLs).
#[derive(Debug)]
pub struct Calendar<E> {
    /// Radix buckets of keys firing after `now` (see above).
    buckets: [Vec<Key>; 64],
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// Second key words of the events due at `now`, in `seq` order.
    now_q: VecDeque<u64>,
    /// Slot arena for pending payloads; `None` marks a free slot.
    events: Vec<Option<E>>,
    /// Indices of free slots in `events`.
    free: Vec<u32>,
    now: SimTime,
    seq: u64,
    scheduled: u64,
    dispatched: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar with the clock at time zero.
    pub fn new() -> Self {
        Calendar {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            now_q: VecDeque::new(),
            events: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            scheduled: 0,
            dispatched: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    #[inline]
    pub fn pending(&self) -> usize {
        self.events.len() - self.free.len()
    }

    /// True when no events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Total events ever scheduled (diagnostics).
    #[inline]
    pub fn scheduled_count(&self) -> u64 {
        self.scheduled
    }

    /// Total events ever dispatched (diagnostics).
    #[inline]
    pub fn dispatched_count(&self) -> u64 {
        self.dispatched
    }

    /// Schedule `event` to fire at the absolute instant `at`.
    ///
    /// # Panics
    /// If `at` precedes the current clock: the radix invariant (and
    /// the clock's monotonicity) depend on it, in every build profile.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.scheduled += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.events[s as usize].is_none());
                self.events[s as usize] = Some(event);
                s
            }
            None => {
                let s = u32::try_from(self.events.len()).expect("calendar slot overflow");
                self.events.push(Some(event));
                s
            }
        };
        let key = pack(at, seq, slot);
        if at == self.now {
            self.now_q.push_back(key.1);
        } else {
            let b = bucket_of(at.0, self.now.0);
            self.buckets[b].push(key);
            self.occupied |= 1 << b;
        }
    }

    /// Schedule `event` to fire `delay` after the current clock.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` to fire at the current instant, after every
    /// event already scheduled for this instant.
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pop the next event, advancing the clock to its firing time.
    ///
    /// Deliberately *not* an `Iterator`: handlers schedule further
    /// events between pops, so holding an iterator would borrow the
    /// calendar across exactly the calls that need `&mut` access.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        if self.now_q.is_empty() && !self.refill() {
            return None;
        }
        let low = self.now_q.pop_front().expect("refilled above");
        let slot = (low & SLOT_MASK) as usize;
        let event = self.events[slot]
            .take()
            .expect("calendar key points at an empty slot");
        self.free.push(slot as u32);
        self.dispatched += 1;
        Some((self.now, event))
    }

    /// Advance the clock to the earliest pending time and move its
    /// keys into the empty `now_q`. False when no event is pending.
    fn refill(&mut self) -> bool {
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        let m = bucket.iter().map(|k| k.0).min().expect("occupied bucket");
        self.now = SimTime(m);
        for &(t, low) in &bucket {
            if t == m {
                self.now_q.push_back(low);
            } else {
                let nb = bucket_of(t, m);
                self.buckets[nb].push((t, low));
                self.occupied |= 1 << nb;
            }
        }
        debug_assert!(self.now_q.iter().is_sorted(), "now_q out of seq order");
        // Every key left for a lower bucket: hand the emptied vector
        // back so the bucket keeps its capacity.
        bucket.clear();
        self.buckets[b] = bucket;
        true
    }

    /// Firing time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.now_q.is_empty() {
            return Some(self.now);
        }
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.buckets[b].iter().map(|k| SimTime(k.0)).min()
    }
}

/// The binary-heap calendar the radix heap replaced, kept verbatim as
/// the differential tests' reference model: a min-heap of packed keys
/// plus a current-instant FIFO that bypasses it.
#[cfg(test)]
mod reference {
    use super::{pack, Key, SLOT_BITS};
    use crate::time::{SimDuration, SimTime};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};

    fn unpack(key: Key) -> (SimTime, u64, u32) {
        (
            SimTime(key.0),
            key.1 >> SLOT_BITS,
            (key.1 & ((1 << SLOT_BITS) - 1)) as u32,
        )
    }

    pub struct ReferenceCalendar<E> {
        heap: BinaryHeap<Reverse<Key>>,
        events: Vec<Option<E>>,
        free: Vec<u32>,
        now_q: VecDeque<(u64, E)>,
        now: SimTime,
        seq: u64,
        scheduled: u64,
        dispatched: u64,
    }

    impl<E> ReferenceCalendar<E> {
        pub fn new() -> Self {
            ReferenceCalendar {
                heap: BinaryHeap::new(),
                events: Vec::new(),
                free: Vec::new(),
                now_q: VecDeque::new(),
                now: SimTime::ZERO,
                seq: 0,
                scheduled: 0,
                dispatched: 0,
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn pending(&self) -> usize {
            self.heap.len() + self.now_q.len()
        }

        pub fn is_empty(&self) -> bool {
            self.heap.is_empty() && self.now_q.is_empty()
        }

        pub fn scheduled_count(&self) -> u64 {
            self.scheduled
        }

        pub fn dispatched_count(&self) -> u64 {
            self.dispatched
        }

        pub fn schedule_at(&mut self, at: SimTime, event: E) {
            assert!(at >= self.now, "scheduling into the past");
            let seq = self.seq;
            self.seq += 1;
            self.scheduled += 1;
            if at == self.now {
                self.now_q.push_back((seq, event));
                return;
            }
            let slot = match self.free.pop() {
                Some(s) => {
                    self.events[s as usize] = Some(event);
                    s
                }
                None => {
                    self.events.push(Some(event));
                    (self.events.len() - 1) as u32
                }
            };
            self.heap.push(Reverse(pack(at, seq, slot)));
        }

        pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
            self.schedule_at(self.now + delay, event);
        }

        pub fn schedule_now(&mut self, event: E) {
            self.schedule_at(self.now, event);
        }

        pub fn next(&mut self) -> Option<(SimTime, E)> {
            // A `now_q` event fires unless a heap event also due at
            // `now` was scheduled earlier (smaller seq).
            let take_heap = match (self.heap.peek(), self.now_q.front()) {
                (Some(&Reverse(k)), Some(&(fs, _))) => {
                    let (t, s, _) = unpack(k);
                    (t, s) < (self.now, fs)
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            self.dispatched += 1;
            if take_heap {
                let (time, _seq, slot) = unpack(self.heap.pop().expect("peeked above").0);
                self.now = time;
                let event = self.events[slot as usize].take().expect("live slot");
                self.free.push(slot);
                Some((time, event))
            } else {
                let (_, event) = self.now_q.pop_front().expect("checked above");
                Some((self.now, event))
            }
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            if self.now_q.is_empty() {
                self.heap.peek().map(|&Reverse(k)| unpack(k).0)
            } else {
                Some(self.now)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(30), "c");
        cal.schedule_at(SimTime(10), "a");
        cal.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| cal.next()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100u32 {
            cal.schedule_at(SimTime(42), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| cal.next()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(5), ());
        cal.schedule_at(SimTime(9), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.next();
        assert_eq!(cal.now(), SimTime(5));
        cal.next();
        assert_eq!(cal.now(), SimTime(9));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(100), 1);
        cal.next();
        cal.schedule_in(SimDuration(50), 2);
        let (t, e) = cal.next().unwrap();
        assert_eq!((t, e), (SimTime(150), 2));
    }

    #[test]
    fn schedule_now_runs_after_existing_same_instant_events() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(7), "first");
        cal.schedule_at(SimTime(7), "second");
        let (_, e) = cal.next().unwrap();
        assert_eq!(e, "first");
        cal.schedule_now("third");
        let (_, e) = cal.next().unwrap();
        assert_eq!(e, "second");
        let (t, e) = cal.next().unwrap();
        assert_eq!((t, e), (SimTime(7), "third"));
    }

    #[test]
    fn counters_track_flow() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(1), ());
        cal.schedule_at(SimTime(2), ());
        assert_eq!(cal.scheduled_count(), 2);
        assert_eq!(cal.pending(), 2);
        cal.next();
        assert_eq!(cal.dispatched_count(), 1);
        assert_eq!(cal.pending(), 1);
        assert!(!cal.is_empty());
        cal.next();
        assert!(cal.is_empty());
        assert!(cal.next().is_none());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(11), ());
        assert_eq!(cal.peek_time(), Some(SimTime(11)));
        assert_eq!(cal.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics_in_every_build() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(10), ());
        cal.next();
        cal.schedule_at(SimTime(5), ());
    }
}

// Seeded-loop generative tests (former proptest suite, rewritten as
// deterministic randomized loops over the same input space).
#[cfg(test)]
mod generative_tests {
    use super::reference::ReferenceCalendar;
    use super::*;
    use crate::rng::SimRng;

    fn random_times(r: &mut SimRng) -> Vec<u64> {
        let len = r.uniform_usize(1, 199);
        (0..len).map(|_| r.uniform_u64(0, 999)).collect()
    }

    /// Popping the calendar yields exactly the multiset of scheduled
    /// events, sorted by (time, insertion order) — i.e. a stable sort.
    #[test]
    fn calendar_is_a_stable_priority_queue() {
        let mut r = SimRng::new(0xCA1E_11DA);
        for _ in 0..100 {
            let times = random_times(&mut r);
            let mut cal = Calendar::new();
            for (i, &t) in times.iter().enumerate() {
                cal.schedule_at(SimTime(t), i);
            }
            let mut reference: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            reference.sort(); // (time, seq) — seq equals insertion index here
            let popped: Vec<(u64, usize)> = std::iter::from_fn(|| cal.next())
                .map(|(t, i)| (t.0, i))
                .collect();
            assert_eq!(popped, reference);
        }
    }

    /// The clock is monotone no matter the schedule.
    #[test]
    fn clock_is_monotone() {
        let mut r = SimRng::new(0xC10C_7151);
        for _ in 0..100 {
            let times = random_times(&mut r);
            let mut cal = Calendar::new();
            for &t in &times {
                cal.schedule_at(SimTime(t), ());
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = cal.next() {
                assert!(t >= last);
                last = t;
            }
        }
    }

    /// A delay drawn from one of three regimes: zero (a same-instant
    /// tie), a short gap of 1–16 µs, or a gap of random bit length from
    /// 1 µs up to 2^62 µs. Clamped so the firing time fits in a `u64`.
    fn gap(r: &mut SimRng, now: SimTime, tie_pct: u64) -> SimDuration {
        let roll = r.uniform_u64(0, 99);
        let d = if roll < tie_pct {
            0
        } else if roll < tie_pct + (100 - tie_pct) / 2 {
            r.uniform_u64(1, 16)
        } else {
            let bits = r.uniform_u64(0, 62);
            (1 << bits) | (r.next_u64() & ((1 << bits) - 1))
        };
        SimDuration(d.min(u64::MAX - now.0))
    }

    fn assert_agree(cal: &Calendar<u64>, reference: &ReferenceCalendar<u64>) {
        assert_eq!(cal.now(), reference.now());
        assert_eq!(cal.pending(), reference.pending());
        assert_eq!(cal.is_empty(), reference.is_empty());
        assert_eq!(cal.scheduled_count(), reference.scheduled_count());
        assert_eq!(cal.dispatched_count(), reference.dispatched_count());
        assert_eq!(cal.peek_time(), reference.peek_time());
    }

    /// Differential test against the binary-heap calendar: random
    /// interleavings of `schedule_at`, `schedule_now`, `schedule_in`
    /// and `next` give identical `(time, payload)` pop sequences, and
    /// the two calendars agree on every observable after every
    /// operation. Rounds vary the tie rate (up to mostly same-instant
    /// pushes, including pushes at `now` while a refilled `now_q`
    /// drains), mix gaps from 1 µs to 2^62 µs, and drain the calendar
    /// empty before scheduling into it again.
    #[test]
    fn radix_heap_matches_the_binary_heap_reference() {
        let mut r = SimRng::new(0x8AD1_C0DE);
        for round in 0..300u64 {
            let mut cal = Calendar::new();
            let mut reference = ReferenceCalendar::new();
            let tie_pct = [0, 30, 60, 90][round as usize % 4];
            let mut payload = 0u64;
            for _ in 0..r.uniform_usize(1, 4) {
                // Fill, interleave, then drain empty and start again.
                for _ in 0..r.uniform_usize(1, 600) {
                    payload += 1;
                    match r.uniform_u64(0, 5) {
                        0 | 1 => {
                            let at = cal.now() + gap(&mut r, cal.now(), tie_pct);
                            cal.schedule_at(at, payload);
                            reference.schedule_at(at, payload);
                        }
                        2 => {
                            cal.schedule_now(payload);
                            reference.schedule_now(payload);
                        }
                        3 => {
                            let d = gap(&mut r, cal.now(), tie_pct);
                            cal.schedule_in(d, payload);
                            reference.schedule_in(d, payload);
                        }
                        _ => assert_eq!(cal.next(), reference.next()),
                    }
                    assert_agree(&cal, &reference);
                }
                loop {
                    let popped = cal.next();
                    assert_eq!(popped, reference.next());
                    assert_agree(&cal, &reference);
                    if popped.is_none() {
                        break;
                    }
                    // Same-instant pushes while `now_q` drains.
                    if r.uniform_u64(0, 99) < tie_pct / 3 {
                        payload += 1;
                        cal.schedule_now(payload);
                        reference.schedule_now(payload);
                        assert_agree(&cal, &reference);
                    }
                }
            }
        }
    }
}
