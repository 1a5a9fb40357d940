//! The workspace's one random number generator.
//!
//! Every draw in a run — link latency and loss, probe jitter, server
//! selection, sweep seeds, generated test cases — comes from [`Rng`], so
//! "reproducible from a seed" is a property of this file and nothing
//! outside the repository. The generator is xoshiro256++ (Blackman and
//! Vigna), its state filled from the seed by four [`splitmix64`] steps;
//! `tests` below pins both against the authors' reference vectors.
//!
//! The draw mappings are part of every pinned digest and must not change:
//! integers take the high word of a 64×64-bit multiply (Lemire) and redraw
//! on the < span/2⁶⁴ of words that would bias it, `f64`s scale the top 53
//! bits, and [`Rng::random_bool`] compares one word with a 64-bit
//! fixed-point threshold.

use std::ops::{Range, RangeInclusive};

/// The golden-ratio increment between successive SplitMix64 states.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output function: a bijective mix of all 64 bits of `z`,
/// for deriving an independent seed or hash from any 64-bit key.
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of SplitMix64: the output that follows state `z`. The
/// sequence from `z` is `splitmix64(z)`, `splitmix64(z + γ)`, … with γ the
/// golden-ratio increment.
pub const fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

/// xoshiro256++: small, fast, not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is the four SplitMix64 outputs that follow
    /// `seed` (never all zero, which is xoshiro's one forbidden state).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        Rng {
            s: [(); 4].map(|()| {
                let word = splitmix64(state);
                state = state.wrapping_add(GOLDEN_GAMMA);
                word
            }),
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `range` (`a..b` or `a..=b`, integers or `f64`).
    ///
    /// # Panics
    /// If the range is empty, or an `f64` range is not finite.
    #[inline]
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`. Any `p >= 1` is always `true` and
    /// draws nothing; every other `p` draws one word, and a negative or
    /// NaN `p` is never `true`.
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        // 64-bit fixed point; the cast saturates, sending NaN to 0.
        self.next_u64() < (p * 2f64.powi(64)) as u64
    }

    /// A uniform draw from `0..span`, or from all of `u64` for `span == 0`
    /// (the span of `0..=u64::MAX`, which does not fit).
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        if span == 0 {
            return self.next_u64();
        }
        let mut m = u128::from(self.next_u64()) * u128::from(span);
        if (m as u64) < span {
            // 2⁶⁴ mod span low words map to one more input each than the
            // rest do; redraw those.
            let threshold = span.wrapping_neg() % span;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(span);
            }
        }
        (m >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)`: the top 53 bits over 2⁵³.
    #[inline]
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`Rng::random_range`] can draw a `T` from.
pub trait SampleRange<T> {
    /// A uniform draw from `self`; panics if it is empty.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! int_ranges {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range {self:?}");
                (self.start..=self.end - 1).sample(rng)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(!self.is_empty(), "cannot sample empty range {self:?}");
                let (lo, hi) = self.into_inner();
                // Through the unsigned type of the same width: `as u64`
                // alone would sign-extend a wrapped signed difference.
                let span = (hi.wrapping_sub(lo) as $u as u64).wrapping_add(1);
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
int_ranges!(
    u8 as u8,
    u16 as u16,
    u32 as u32,
    u64 as u64,
    usize as usize,
    i32 as u32,
    i64 as u64
);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        let width = self.end - self.start;
        assert!(
            self.start < self.end && width.is_finite(),
            "cannot sample empty or unbounded range {self:?}"
        );
        loop {
            // Rounding can land the largest draws on `end`; those go again.
            let v = self.start + width * rng.unit();
            if v < self.end {
                return v;
            }
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = self.into_inner();
        let width = hi - lo;
        assert!(
            lo <= hi && width.is_finite(),
            "cannot sample empty or unbounded range {lo}..={hi}"
        );
        // 53 bits over 2⁵³ − 1, so that 1.0 is drawn.
        let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        (lo + width * unit).min(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first outputs of the reference `xoshiro256plusplus.c` from
    /// state `{1, 2, 3, 4}`.
    #[test]
    fn xoshiro_matches_the_reference_vectors() {
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..6).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                41943041,
                58720359,
                3588806011781223,
                3591011842654386,
                9228616714210784205,
                9973669472204895162,
            ]
        );
    }

    /// The first outputs of the reference `splitmix64.c` from `x = 1234567`.
    #[test]
    fn splitmix64_matches_the_reference_vectors() {
        let got =
            [0u64, 1, 2, 3].map(|i| splitmix64(i.wrapping_mul(GOLDEN_GAMMA).wrapping_add(1234567)));
        assert_eq!(
            got,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423,
                4593380528125082431,
            ]
        );
        assert_eq!(Rng::seed_from_u64(1234567).s, got);
    }

    /// Pearson's statistic for `counts` against equal expectations.
    fn chi_square(counts: &[u64]) -> f64 {
        let expected = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum()
    }

    /// `df + 6·√(2·df)`: six standard deviations above a chi-square's mean.
    fn chi_square_bound(buckets: usize) -> f64 {
        let df = (buckets - 1) as f64;
        df + 6.0 * (2.0 * df).sqrt()
    }

    #[test]
    fn integer_ranges_are_uniform() {
        for (span, buckets) in [(3u64, 3usize), (10, 10), (1000, 1000), ((1 << 63) + 1, 16)] {
            let mut rng = Rng::seed_from_u64(span);
            let mut counts = vec![0u64; buckets];
            for _ in 0..200 * buckets {
                let v = rng.random_range(0..span);
                assert!(v < span);
                counts[(u128::from(v) * buckets as u128 / u128::from(span)) as usize] += 1;
            }
            let chi = chi_square(&counts);
            assert!(chi < chi_square_bound(buckets), "span {span}: χ² = {chi}");
        }
    }

    /// On a span of ¾·2⁶⁴ the bare multiply reaches every third value
    /// twice as often as the others; the redraw has to level that.
    #[test]
    fn the_redraw_removes_the_multiply_bias() {
        let span = 3u64 << 62;
        let mut rng = Rng::seed_from_u64(7);
        let mut counts = [0u64; 3];
        for _ in 0..30_000 {
            counts[(rng.random_range(0..span) % 3) as usize] += 1;
        }
        let chi = chi_square(&counts);
        assert!(chi < chi_square_bound(3), "χ² = {chi} over {counts:?}");
    }

    /// 2⁶⁴ mod (2⁶³ + 1) is 2⁶³ − 1, so half of all words are redrawn and a
    /// draw costs two words on average.
    #[test]
    fn a_span_just_over_half_the_words_redraws_every_other_time() {
        let mut rng = Rng::seed_from_u64(11);
        let mut words = 0u64;
        let draws = 10_000;
        for _ in 0..draws {
            let mut before = rng.clone();
            rng.random_range(0..(1u64 << 63) + 1);
            while before != rng {
                before.next_u64();
                words += 1;
            }
        }
        let per_draw = words as f64 / draws as f64;
        assert!((1.9..2.1).contains(&per_draw), "{per_draw} words per draw");
    }

    #[test]
    fn inclusive_ranges_reach_both_ends_and_the_full_width_does_not_overflow() {
        let mut rng = Rng::seed_from_u64(3);
        let draws: Vec<u8> = (0..200).map(|_| rng.random_range(5..=7u8)).collect();
        assert!(draws.iter().all(|v| (5..=7).contains(v)));
        assert!(draws.contains(&5) && draws.contains(&7));
        let signed: Vec<i32> = (0..200).map(|_| rng.random_range(-1..=1)).collect();
        assert!(signed.contains(&-1) && signed.contains(&0) && signed.contains(&1));
        assert_eq!(rng.random_range(9..=9usize), 9);

        // Span 2⁶⁴ wraps to 0: the draw is the word itself.
        let mut twin = rng.clone();
        assert_eq!(rng.random_range(0..=u64::MAX), twin.next_u64());
        let wide = rng.random_range(i64::MIN..=i64::MAX);
        assert_eq!(wide, i64::MIN.wrapping_add(twin.next_u64() as i64));
        let v = rng.random_range(i32::MIN..i32::MAX);
        assert!(v < i32::MAX);
    }

    #[test]
    fn f64_ranges_stay_inside_their_bounds() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..10_000 {
            let v = rng.random_range(0.1..0.3);
            assert!((0.1..0.3).contains(&v), "{v}");
            let w = rng.random_range(-2.0..=-1.0);
            assert!((-2.0..=-1.0).contains(&w), "{w}");
        }
        // The largest unit draw rounds 0.1 + 0.2·u up to 0.3; it must not
        // come back.
        let mut top = Rng { s: [0; 4] };
        top.s[0] = u64::MAX;
        let v = top.random_range(0.1..0.3);
        assert!(v < 0.3, "{v}");
        assert_eq!(Rng::seed_from_u64(1).random_range(4.0..=4.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range 7..7")]
    fn an_empty_half_open_range_panics_with_the_range() {
        Rng::seed_from_u64(0).random_range(7..7u32);
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range 8..=7")]
    fn an_empty_inclusive_range_panics_with_the_range() {
        let (lo, hi) = (8i64, 7);
        Rng::seed_from_u64(0).random_range(lo..=hi);
    }

    /// The call sites guard with `p > 0.0 && random_bool(p.clamp(0.0, 1.0))`;
    /// the unguarded call has to agree with them at the edges.
    #[test]
    fn random_bool_edges_draw_like_the_clamped_call_sites() {
        let mut rng = Rng::seed_from_u64(9);
        let untouched = rng.clone();
        assert!(rng.random_bool(1.0));
        assert!(rng.random_bool(f64::INFINITY));
        assert_eq!(rng, untouched, "p >= 1 draws nothing");

        for p in [0.0, -0.5, f64::NAN] {
            let mut twin = rng.clone();
            assert!(!rng.random_bool(p), "p = {p}");
            twin.next_u64();
            assert_eq!(rng, twin, "p = {p} draws exactly one word");
        }

        let hits = (0..100_000).filter(|_| rng.random_bool(0.25)).count();
        assert!(
            (24_000..26_000).contains(&hits),
            "{hits} of 100000 at p = 0.25"
        );
    }
}
