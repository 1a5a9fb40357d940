//! The simulator's hash function: [`FastMap`] and [`FastSet`].
//!
//! `std`'s maps default to SipHash-1-3 under a per-process random key
//! (`RandomState`), which resists hash flooding: a peer who picks the
//! keys cannot make them collide. Inside the simulator no peer picks a
//! key. Addresses, message ids, task ids and cache keys come from the
//! topology and the seeded run, and every datagram, cache probe and task
//! lookup pays for SipHash all the same. [`FxHasher`] is the
//! multiply-rotate hash of rustc and Firefox: one rotate, xor and
//! multiply per 8-byte word, and its [`BuildHasherDefault`] is zero-sized,
//! where a `RandomState` carries 16 bytes of key in every map.
//!
//! Use it only where the keys are the simulation's own. A live socket
//! (`dike-serve`, and the wire, zone and defense code it runs) keeps
//! `RandomState`, because there a sender chooses the names and addresses
//! being hashed.
//!
//! The function is fixed, so a map's iteration order is the same in every
//! run that makes the same inserts. That is a property of the tables, not
//! a promise to their readers: no output may depend on a map's order.
//! `tests` pins the function with known answers.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` under [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` under [`FxHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The odd multiplier of rustc's and Firefox's FxHasher.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The Fx hash: state `h` takes each word `w` as `h = (h ⟲ 5 ⊕ w)·K`,
/// and the hash is `h ⟲ 26`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// Little-endian 8-byte words; a short tail is zero-padded into one
    /// more word (a slice's length, hashed before its bytes, tells
    /// `"ab"` from `"ab\0"`).
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        // The tail in fixed-size loads: a variable-length copy into a
        // padded buffer costs a `memcpy` call per hash.
        let mut tail = words.remainder();
        if tail.is_empty() {
            return;
        }
        let (mut word, mut shift) = (0u64, 0);
        if tail.len() >= 4 {
            let four = tail[..4].try_into().expect("4 bytes");
            word = u64::from(u32::from_le_bytes(four));
            (tail, shift) = (&tail[4..], 32);
        }
        if tail.len() >= 2 {
            let two = tail[..2].try_into().expect("2 bytes");
            word |= u64::from(u16::from_le_bytes(two)) << shift;
            (tail, shift) = (&tail[2..], shift + 16);
        }
        if let Some(&one) = tail.first() {
            word |= u64::from(one) << shift;
        }
        self.add(word);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The last multiply mixes every input bit into the product's high
    /// bits only; the rotate brings them down to the low bits, where the
    /// table picks a bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    /// The function is part of nothing's output, but a change to it is a
    /// change to every simulator table's layout: pin it. The values were
    /// worked out from the formula on `FxHasher`, not by running this
    /// code.
    #[test]
    fn known_answers() {
        assert_eq!(fx(&0u64), 0);
        assert_eq!(fx(&1u32), K.rotate_left(26));
        assert_eq!(fx(&0xdead_beef_u32), 0xdca5_4ddc_6d9f_cf00);
        assert_eq!(fx(&(7u16, 9u32)), 0xcd9d_5fd8_1a26_6e15);
        // A slice hashes its length, then its bytes as one padded word.
        assert_eq!(fx(&[1u8, 2, 3][..]), 0x366b_248d_acea_906f);
        // Nine bytes: one full word and a zero-padded tail.
        let mut h = FxHasher::default();
        h.write(b"cachetest");
        assert_eq!(h.finish(), 0x7c4b_2b09_380b_78c4);
        // Fifteen: a seven-byte tail read as four, two and one.
        let mut h = FxHasher::default();
        h.write(b"ns1.cachetest.n");
        assert_eq!(h.finish(), 0xad1e_4c28_bcf3_528c);
    }

    /// Two maps built by the same inserts iterate alike. Two `RandomState`
    /// maps draw different keys and, over a thousand entries, would not.
    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut m = FastMap::default();
            for i in 0..1000u32 {
                m.insert(i.wrapping_mul(2_654_435_761), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
        let set = || (0..1000u32).collect::<FastSet<_>>();
        assert!(set().into_iter().eq(set()));
    }

    /// Keys that differ only above their low bits still reach different
    /// buckets (a table picks by the low bits of `finish`). Without the
    /// final rotate, addresses 256 apart would share 8 of 2048 buckets.
    #[test]
    fn strided_keys_spread_over_buckets() {
        for stride in [1u64, 256, 65_536] {
            let used: FastSet<u64> = (0..1024u64).map(|i| fx(&(i * stride)) & 2047).collect();
            assert!(used.len() > 900, "stride {stride}: {} buckets", used.len());
        }
    }
}
