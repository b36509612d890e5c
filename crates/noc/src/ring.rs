//! Multi-lane contiguous ring buffers (ring slabs).
//!
//! A [`RingSlab`] packs many fixed-capacity FIFO lanes into one
//! contiguous slot array with CSR-style lane bounds — the same
//! flatten-the-nested-containers idiom the switch fabric applies to its
//! input VCs ([`crate::vc::VcFabric`]) and `docs/engine.md` documents
//! under "Switch memory layout".  The engine uses it for the last three
//! per-component `VecDeque` nests on the hot path:
//!
//! * `Link` in-flight pipelines — one network-owned slab, lane per link;
//! * radio transmit FIFOs — one slab per radio, lane per TX VC;
//! * injection source queues — one network-owned slab, lane per endpoint.
//!
//! Semantics are exactly those of a `VecDeque<T>` per lane (same fronts,
//! same pops, same iteration order — pinned by the model proptest in
//! `tests/slab_model.rs`), with two differences: capacity is fixed per
//! lane unless the caller opts into [`RingSlab::push_back_growing`], and
//! storage never reallocates on the per-cycle path.

/// Many fixed-capacity FIFO lanes in one contiguous slot array.
///
/// Lane `l` owns `slots[base[l] .. base[l + 1]]` as a circular buffer
/// with its own head offset and length.  `T: Copy` keeps push/pop a
/// plain slot write/read; a caller-supplied fill value initialises
/// unoccupied slots (no `Default` bound on the payload).
#[derive(Debug, Clone)]
pub struct RingSlab<T> {
    slots: Vec<T>,
    /// CSR lane bounds into `slots` (`lanes + 1` entries).
    base: Vec<u32>,
    /// Front offset within each lane's span.
    head: Vec<u32>,
    /// Occupied slots per lane.
    len: Vec<u32>,
    /// Value for unoccupied slots (and for growth rebuilds).
    fill: T,
    /// Lane doublings so far (a work counter, not slab content).
    regrowths: u64,
    /// Slots those doublings moved (lane rotation plus the shift of
    /// later lanes).
    slots_copied: u64,
}

/// Equality is over the FIFO contents and lane layout; the growth
/// counters are history, not content.
impl<T: PartialEq> PartialEq for RingSlab<T> {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
            && self.base == other.base
            && self.head == other.head
            && self.len == other.len
            && self.fill == other.fill
    }
}

impl<T: Copy> RingSlab<T> {
    /// A slab of `lanes` lanes with `capacity` slots each.
    pub fn uniform(lanes: usize, capacity: usize, fill: T) -> Self {
        Self::with_capacities(&vec![capacity; lanes], fill)
    }

    /// A slab with per-lane capacities (zero-capacity lanes are allowed;
    /// they grow on first [`RingSlab::push_back_growing`]).
    ///
    /// # Panics
    ///
    /// Panics if total capacity exceeds `u32::MAX` slots.
    pub fn with_capacities(capacities: &[usize], fill: T) -> Self {
        let mut base = Vec::with_capacity(capacities.len() + 1);
        let mut total = 0u32;
        base.push(0);
        for &c in capacities {
            total = total
                .checked_add(u32::try_from(c).expect("lane capacity fits u32"))
                .expect("ring slab fits u32 slots");
            base.push(total);
        }
        RingSlab {
            slots: vec![fill; total as usize],
            base,
            head: vec![0; capacities.len()],
            len: vec![0; capacities.len()],
            fill,
            regrowths: 0,
            slots_copied: 0,
        }
    }

    /// Lane doublings so far and the slots they moved — deterministic
    /// work counters (see `Network::work_counters`).  A
    /// [`RingSlab::restore`] keeps them.
    pub fn growth(&self) -> (u64, u64) {
        (self.regrowths, self.slots_copied)
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.head.len()
    }

    /// Capacity of one lane.
    #[inline]
    pub fn capacity(&self, lane: usize) -> usize {
        (self.base[lane + 1] - self.base[lane]) as usize
    }

    /// Occupied slots in one lane.
    #[inline]
    pub fn len(&self, lane: usize) -> usize {
        self.len[lane] as usize
    }

    /// `true` when the lane holds nothing.
    #[inline]
    pub fn is_empty(&self, lane: usize) -> bool {
        self.len[lane] == 0
    }

    /// Remaining free slots in one lane.
    #[inline]
    pub fn free_space(&self, lane: usize) -> usize {
        self.capacity(lane) - self.len(lane)
    }

    /// Slot index of element `i` (0 = front) of `lane`.
    #[inline]
    fn slot(&self, lane: usize, i: usize) -> usize {
        let cap = (self.base[lane + 1] - self.base[lane]) as usize;
        self.base[lane] as usize + (self.head[lane] as usize + i) % cap
    }

    /// The front element of a lane, if any.
    #[inline]
    pub fn front(&self, lane: usize) -> Option<T> {
        (self.len[lane] > 0).then(|| self.slots[self.slot(lane, 0)])
    }

    /// Element `i` of a lane (0 = front), if occupied.
    #[inline]
    pub fn get(&self, lane: usize, i: usize) -> Option<T> {
        (i < self.len(lane)).then(|| self.slots[self.slot(lane, i)])
    }

    /// Appends to the back of a lane.
    ///
    /// # Panics
    ///
    /// Panics when the lane is full — fixed-capacity lanes model
    /// credit-bounded buffers, where overflow is a protocol violation.
    #[inline]
    pub fn push_back(&mut self, lane: usize, value: T) {
        assert!(self.free_space(lane) > 0, "ring lane {lane} overflow");
        let slot = self.slot(lane, self.len(lane));
        self.slots[slot] = value;
        self.len[lane] += 1;
    }

    /// Appends to the back of a lane, doubling the lane's capacity first
    /// when it is full (in place: the lane is straightened and the new
    /// slots are spliced in after it, so a doubling costs O(that lane)
    /// element moves plus one memmove of the later lanes; amortised
    /// O(1), never on the steady-state path once lanes reach their
    /// working size).
    #[inline]
    pub fn push_back_growing(&mut self, lane: usize, value: T) {
        if self.free_space(lane) == 0 {
            self.grow_lane(lane);
        }
        self.push_back(lane, value);
    }

    /// Removes and returns the front of a lane.
    #[inline]
    pub fn pop_front(&mut self, lane: usize) -> Option<T> {
        if self.len[lane] == 0 {
            return None;
        }
        let slot = self.slot(lane, 0);
        let value = self.slots[slot];
        let cap = self.capacity(lane) as u32;
        self.head[lane] = (self.head[lane] + 1) % cap;
        self.len[lane] -= 1;
        Some(value)
    }

    /// Iterates one lane front-to-back by value.
    pub fn iter(&self, lane: usize) -> impl Iterator<Item = T> + '_ {
        (0..self.len(lane)).map(move |i| self.slots[self.slot(lane, i)])
    }

    /// The slab's complete dynamic state for checkpointing: per-lane
    /// contents (front to back) and per-lane capacities (capacities are
    /// state too — [`RingSlab::push_back_growing`] may have grown a
    /// lane beyond its constructed size).
    pub fn state(&self) -> (Vec<Vec<T>>, Vec<usize>) {
        let contents = (0..self.lanes()).map(|l| self.iter(l).collect()).collect();
        let caps = (0..self.lanes()).map(|l| self.capacity(l)).collect();
        (contents, caps)
    }

    /// Rebuilds the slab from a [`RingSlab::state`] snapshot.  Heads
    /// normalise to zero, which is invisible through the FIFO interface.
    ///
    /// # Panics
    ///
    /// Panics when the lane count differs or a lane's contents exceed
    /// its capacity.
    pub fn restore(&mut self, contents: &[Vec<T>], capacities: &[usize]) {
        assert_eq!(contents.len(), self.lanes(), "ring slab lane count changed");
        assert_eq!(capacities.len(), self.lanes(), "ring slab lane count changed");
        let mut next = RingSlab::with_capacities(capacities, self.fill);
        for (l, lane) in contents.iter().enumerate() {
            for &v in lane {
                next.push_back(l, v);
            }
        }
        next.regrowths = self.regrowths;
        next.slots_copied = self.slots_copied;
        *self = next;
    }

    /// Doubles `lane`'s capacity (at least 4 slots) in place: rotates
    /// the lane's span so its front sits at the span start, splices the
    /// extra fill slots in right after it, and shifts the CSR bounds of
    /// the later lanes.  Contents and order of every lane are
    /// preserved; other lanes keep their heads and capacities.
    ///
    /// # Panics
    ///
    /// Panics if the grown slab would exceed `u32::MAX` slots.
    fn grow_lane(&mut self, lane: usize) {
        let start = self.base[lane] as usize;
        let cap = self.capacity(lane);
        let extra = (cap * 2).max(4) - cap;
        let head = self.head[lane] as usize;
        self.slots[start..start + cap].rotate_left(head);
        self.head[lane] = 0;
        let end = start + cap;
        let tail = self.slots.len();
        self.regrowths += 1;
        self.slots_copied += (if head == 0 { 0 } else { cap } + tail - end) as u64;
        let extra32 = u32::try_from(extra).expect("lane capacity fits u32");
        self.base[self.lanes()]
            .checked_add(extra32)
            .expect("ring slab fits u32 slots");
        self.slots.resize(tail + extra, self.fill);
        self.slots.copy_within(end..tail, end + extra);
        self.slots[end..end + extra].fill(self.fill);
        for b in &mut self.base[lane + 1..] {
            *b += extra32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_lane_fifo_order_with_wraparound() {
        let mut r = RingSlab::uniform(2, 3, 0u32);
        for round in 0..10u32 {
            r.push_back(0, round);
            r.push_back(1, 100 + round);
            assert_eq!(r.pop_front(0), Some(round));
            assert_eq!(r.pop_front(1), Some(100 + round));
        }
        assert!(r.is_empty(0) && r.is_empty(1));
    }

    #[test]
    fn lanes_do_not_interfere() {
        let mut r = RingSlab::with_capacities(&[2, 4], 0u8);
        r.push_back(0, 1);
        r.push_back(1, 2);
        r.push_back(1, 3);
        assert_eq!(r.len(0), 1);
        assert_eq!(r.len(1), 2);
        assert_eq!(r.front(0), Some(1));
        assert_eq!(r.pop_front(1), Some(2));
        assert_eq!(r.front(0), Some(1), "lane 0 untouched by lane 1 pops");
        assert_eq!(r.free_space(0), 1);
    }

    #[test]
    fn get_and_iter_walk_front_to_back() {
        let mut r = RingSlab::uniform(1, 4, 0i32);
        // Force a wrapped layout: fill, drain two, refill two.
        for v in [1, 2, 3, 4] {
            r.push_back(0, v);
        }
        r.pop_front(0);
        r.pop_front(0);
        r.push_back(0, 5);
        r.push_back(0, 6);
        assert_eq!(r.iter(0).collect::<Vec<_>>(), vec![3, 4, 5, 6]);
        assert_eq!(r.get(0, 0), Some(3));
        assert_eq!(r.get(0, 3), Some(6));
        assert_eq!(r.get(0, 4), None);
    }

    #[test]
    fn growth_preserves_every_lane_in_order() {
        let mut r = RingSlab::with_capacities(&[0, 2], 0u32);
        r.push_back(1, 7);
        r.push_back(1, 8);
        for v in 0..20 {
            r.push_back_growing(0, v);
        }
        assert_eq!(r.iter(0).collect::<Vec<_>>(), (0..20).collect::<Vec<_>>());
        assert_eq!(r.iter(1).collect::<Vec<_>>(), vec![7, 8]);
        assert!(r.capacity(0) >= 20);
        assert_eq!(r.capacity(1), 2, "only the full lane grew");
    }

    /// The growth the slab used to perform: a fresh slab with `lane`'s
    /// capacity doubled and every lane re-pushed front to back.  In-place
    /// growth must be indistinguishable from it through `state()`.
    fn rebuilt_with_grown_lane(r: &RingSlab<u32>, lane: usize) -> RingSlab<u32> {
        let mut caps: Vec<usize> = (0..r.lanes()).map(|l| r.capacity(l)).collect();
        caps[lane] = (caps[lane] * 2).max(4);
        let mut next = RingSlab::with_capacities(&caps, 0);
        for l in 0..r.lanes() {
            for v in r.iter(l) {
                next.push_back(l, v);
            }
        }
        next
    }

    /// Three lanes, every one holding data with a wrapped head; lane 1
    /// is full.
    fn wrapped_three_lanes() -> RingSlab<u32> {
        let mut r = RingSlab::with_capacities(&[3, 4, 5], 0u32);
        for (lane, cap) in [(0usize, 3u32), (1, 4), (2, 5)] {
            let base = 100 * lane as u32;
            for v in 0..cap {
                r.push_back(lane, base + v);
            }
            r.pop_front(lane);
            r.pop_front(lane);
            r.push_back(lane, base + cap);
        }
        r.push_back(1, 105);
        r
    }

    #[test]
    fn growing_a_wrapped_middle_lane_matches_the_full_rebuild() {
        let mut r = wrapped_three_lanes();
        assert_eq!(r.free_space(1), 0, "lane 1 starts full");
        assert_ne!(r.head[1], 0, "lane 1 starts wrapped");
        let before: Vec<Vec<u32>> = (0..3).map(|l| r.iter(l).collect()).collect();
        let mut expected = rebuilt_with_grown_lane(&r, 1);
        expected.push_back(1, 106);

        r.push_back_growing(1, 106);

        assert_eq!(r.state(), expected.state());
        assert_eq!(r.iter(0).collect::<Vec<_>>(), before[0]);
        assert_eq!(r.iter(2).collect::<Vec<_>>(), before[2]);
        assert_eq!(r.iter(1).collect::<Vec<_>>(), vec![102, 103, 104, 105, 106]);
        assert_eq!((r.capacity(0), r.capacity(1), r.capacity(2)), (3, 8, 5));
        // The neighbours' wrapped heads survive untouched and keep
        // wrapping correctly.
        for (lane, base) in [(0usize, 0u32), (2, 200)] {
            assert_eq!(r.pop_front(lane), expected.pop_front(lane));
            r.push_back(lane, base + 50);
            expected.push_back(lane, base + 50);
        }
        assert_eq!(r.state(), expected.state());
    }

    #[test]
    fn every_lane_grows_like_the_full_rebuild() {
        for lane in 0..3 {
            let mut r = wrapped_three_lanes();
            let mut expected = r.clone();
            for v in 0..40 {
                if expected.free_space(lane) == 0 {
                    expected = rebuilt_with_grown_lane(&expected, lane);
                }
                expected.push_back(lane, 1000 + v);
                r.push_back_growing(lane, 1000 + v);
                assert_eq!(r.state(), expected.state(), "lane {lane} after push {v}");
            }
        }
    }

    #[test]
    fn restore_round_trips_after_growth() {
        let mut r = wrapped_three_lanes();
        for v in 0..9 {
            r.push_back_growing(1, 500 + v);
        }
        let (contents, caps) = r.state();
        let mut back = RingSlab::uniform(3, 1, 0u32);
        back.restore(&contents, &caps);
        assert_eq!(back.state(), (contents, caps));
        // Both continue identically, growth included.
        for v in 0..30 {
            let lane = v as usize % 3;
            r.push_back_growing(lane, v);
            back.push_back_growing(lane, v);
            if v % 4 == 0 {
                assert_eq!(r.pop_front(lane), back.pop_front(lane));
            }
        }
        assert_eq!(r.state(), back.state());
    }

    #[test]
    fn growth_counters_count_doublings_and_moved_slots() {
        // Lanes of 2, 2 and 3 slots; lane 0 wraps before it grows.
        let mut r = RingSlab::with_capacities(&[2, 2, 3], 0u32);
        r.push_back(0, 1);
        r.push_back(0, 2);
        r.pop_front(0);
        r.push_back(0, 3);
        assert_eq!(r.growth(), (0, 0));
        // Doubling lane 0 to 4 slots rotates its 2 slots and shifts the
        // 5 slots of lanes 1 and 2.
        r.push_back_growing(0, 4);
        assert_eq!(r.growth(), (1, 2 + 5));
        // Lane 2 is last and its head is at 0: nothing moves.
        for v in 0..4 {
            r.push_back_growing(2, v);
        }
        assert_eq!(r.growth(), (2, 7));
        // Equality ignores the counters, and a restore keeps them.
        let (contents, caps) = r.state();
        let mut fresh = RingSlab::uniform(3, 1, 0u32);
        fresh.restore(&contents, &caps);
        assert_eq!(fresh.growth(), (0, 0));
        r.restore(&contents, &caps);
        assert_eq!(r, fresh);
        assert_eq!(r.growth(), (2, 7));
    }

    #[test]
    #[should_panic]
    fn fixed_lane_overflow_panics() {
        let mut r = RingSlab::uniform(1, 1, 0u32);
        r.push_back(0, 1);
        r.push_back(0, 2);
    }
}
