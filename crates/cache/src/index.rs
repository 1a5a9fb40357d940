//! The cache's index: which slot holds a key.
//!
//! An open-addressing table of 8-byte buckets. A bucket holds a slot
//! number and the key's tag, the high 32 bits of its [`FxHasher`] hash;
//! the key itself lives only in its slot, and the caller compares it. A key starts at the bucket its
//! tag's high bits pick and probes linearly to the first empty bucket,
//! comparing full keys only where the tag matches. The load stays at or
//! below ¾: an insert that would pass it doubles the table first. Tags
//! alone place every bucket, so growing never hashes a key again, and a
//! removal closes its gap by backward shift, so no tombstone is left.

use std::hash::{Hash, Hasher};

use dike_telemetry::hash::FxHasher;
use dike_wire::{Name, RecordType};

/// The slot number of an empty bucket (the slab's indices are below it).
const EMPTY: u32 = u32::MAX;

/// The fewest buckets a table that holds anything has.
const MIN_BUCKETS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    slot: u32,
    tag: u32,
}

const VACANT: Bucket = Bucket {
    slot: EMPTY,
    tag: 0,
};

/// Slot numbers of a slab by key tag, for a slab whose entries hold
/// their own `(name, type)` keys: the resolver cache's slots, or a
/// resolver's in-flight tasks. It counts nothing itself: the caller
/// passes the number of slots indexed.
#[derive(Debug, Default)]
pub struct SlotIndex {
    /// Empty, or a power of two long.
    buckets: Box<[Bucket]>,
}

impl SlotIndex {
    /// The tag of the key `(name, rtype)`: the high half of its Fx hash,
    /// taken over the same fields, in the same order, as
    /// [`CacheKey`](crate::CacheKey)'s.
    pub fn tag(name: &Name, rtype: RecordType) -> u32 {
        let mut h = FxHasher::default();
        name.hash(&mut h);
        rtype.hash(&mut h);
        (h.finish() >> 32) as u32
    }

    /// Where `tag`'s probe starts: its high bits, scaled to the table.
    fn home(&self, tag: u32) -> usize {
        ((u64::from(tag) * self.buckets.len() as u64) >> 32) as usize
    }

    /// The first bucket, from `tag`'s home to the first empty one, that
    /// `hit` accepts. The load bound leaves an empty bucket to stop at.
    fn position(&self, tag: u32, mut hit: impl FnMut(Bucket) -> bool) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut at = self.home(tag);
        loop {
            let bucket = self.buckets[at];
            if bucket.slot == EMPTY {
                return None;
            }
            if hit(bucket) {
                return Some(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// The slot whose key has `tag` and passes `is_key`, if any.
    pub fn find(&self, tag: u32, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        self.position(tag, |b| b.tag == tag && is_key(b.slot))
            .map(|at| self.buckets[at].slot)
    }

    /// Indexes `slot`, whose key has `tag` and is not indexed yet; `len`
    /// slots are indexed once it is in. `slot` is below `u32::MAX`.
    pub fn insert(&mut self, tag: u32, slot: u32, len: usize) {
        debug_assert!(slot != EMPTY, "slot indices stay below u32::MAX");
        if len * 4 > self.buckets.len() * 3 {
            self.grow();
        }
        self.place(Bucket { slot, tag });
    }

    /// Puts `bucket` in the first empty bucket from its home on.
    fn place(&mut self, bucket: Bucket) {
        let mask = self.buckets.len() - 1;
        let mut at = self.home(bucket.tag);
        while self.buckets[at].slot != EMPTY {
            at = (at + 1) & mask;
        }
        self.buckets[at] = bucket;
    }

    /// Doubles the table (one more entry then fits under the load bound)
    /// and places the old buckets by their tags.
    fn grow(&mut self) {
        let n = (self.buckets.len() * 2).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![VACANT; n].into_boxed_slice());
        for &bucket in old.iter().filter(|b| b.slot != EMPTY) {
            self.place(bucket);
        }
    }

    /// Unindexes `slot`, whose key has `tag`. Each bucket after it in
    /// the run moves back into the gap unless the gap lies before that
    /// bucket's home, so every key stays reachable from its home.
    pub fn remove(&mut self, tag: u32, slot: u32) {
        let mut gap = self
            .position(tag, |b| b.slot == slot)
            .expect("a removed slot is indexed");
        let mask = self.buckets.len() - 1;
        let mut at = gap;
        loop {
            at = (at + 1) & mask;
            let bucket = self.buckets[at];
            if bucket.slot == EMPTY {
                break;
            }
            let from_home = at.wrapping_sub(self.home(bucket.tag)) & mask;
            if from_home >= at.wrapping_sub(gap) & mask {
                self.buckets[gap] = bucket;
                gap = at;
            }
        }
        self.buckets[gap] = VACANT;
    }

    /// Unindexes everything and keeps the table's size.
    pub fn clear(&mut self) {
        self.buckets.fill(VACANT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The occupied buckets in table order, as `(slot, tag)`.
    fn layout(index: &SlotIndex) -> Vec<Option<(u32, u32)>> {
        index
            .buckets
            .iter()
            .map(|b| (b.slot != EMPTY).then_some((b.slot, b.tag)))
            .collect()
    }

    /// A tag whose home is bucket `home` of an 8-bucket table.
    fn tag_at(home: u32, low: u32) -> u32 {
        home << 29 | low
    }

    #[test]
    fn the_load_stays_at_or_below_three_quarters() {
        let mut index = SlotIndex::default();
        assert_eq!(index.find(7, |_| true), None);
        for slot in 0..100u32 {
            index.insert(slot.wrapping_mul(0x9e37_79b9), slot, slot as usize + 1);
            let n = index.buckets.len();
            assert!(n.is_power_of_two() && 4 * (slot as usize + 1) <= 3 * n);
        }
        assert_eq!(index.buckets.len(), 256);
        for slot in 0..100u32 {
            let tag = slot.wrapping_mul(0x9e37_79b9);
            assert_eq!(index.find(tag, |s| s == slot), Some(slot));
        }
    }

    /// Keys homed at the last bucket spill over to the first; removing
    /// one pulls the wrapped ones back across the end.
    #[test]
    fn a_run_wraps_and_shifts_back_across_the_end() {
        let mut index = SlotIndex::default();
        for slot in 0..3 {
            index.insert(tag_at(7, slot), slot, slot as usize + 1);
        }
        index.insert(tag_at(0, 9), 3, 4);
        assert_eq!(index.buckets.len(), 8);
        let mut want = vec![None; 8];
        want[7] = Some((0, tag_at(7, 0)));
        want[0] = Some((1, tag_at(7, 1)));
        want[1] = Some((2, tag_at(7, 2)));
        want[2] = Some((3, tag_at(0, 9)));
        assert_eq!(layout(&index), want);

        index.remove(tag_at(7, 0), 0);
        want[7] = Some((1, tag_at(7, 1)));
        want[0] = Some((2, tag_at(7, 2)));
        want[1] = Some((3, tag_at(0, 9)));
        want[2] = None;
        assert_eq!(layout(&index), want);
        for (slot, tag) in [(1, tag_at(7, 1)), (2, tag_at(7, 2)), (3, tag_at(0, 9))] {
            assert_eq!(index.find(tag, |s| s == slot), Some(slot));
        }
    }

    /// A bucket already at its home stays put when an earlier gap opens,
    /// and the shift goes on past it to a bucket that may move.
    #[test]
    fn the_shift_skips_a_bucket_at_its_home() {
        let mut index = SlotIndex::default();
        index.insert(tag_at(2, 0), 0, 1);
        index.insert(tag_at(3, 0), 1, 2);
        index.insert(tag_at(2, 1), 2, 3);
        // 2: slot 0, 3: slot 1 (home), 4: slot 2 (home 2).
        index.remove(tag_at(2, 0), 0);
        let mut want = vec![None; 8];
        want[2] = Some((2, tag_at(2, 1)));
        want[3] = Some((1, tag_at(3, 0)));
        assert_eq!(layout(&index), want);
    }

    #[test]
    fn equal_tags_are_told_apart_by_the_key() {
        let mut index = SlotIndex::default();
        for slot in 0..5 {
            index.insert(42, slot, slot as usize + 1);
        }
        index.remove(42, 1);
        for slot in [0, 2, 3, 4] {
            assert_eq!(index.find(42, |s| s == slot), Some(slot));
        }
        assert_eq!(index.find(42, |s| s == 1), None);
        index.clear();
        assert_eq!(index.find(42, |_| true), None);
        assert_eq!(index.buckets.len(), 8);
    }
}
