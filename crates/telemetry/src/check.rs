//! A seeded case runner for property tests.
//!
//! [`cases`] runs a property body over `n` generated cases. Case `i` of
//! the property called `name` always sees the same [`Gen`], on every
//! machine and every run, so a failure reproduces by running the test
//! again; the panic names the property, the case and its seed. There is
//! no shrinking: generators are plain functions `fn arb_x(g: &mut Gen) -> X`
//! and a failing case is debugged as drawn.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::{splitmix64, Rng, SampleRange};

/// Every property's case seeds derive from this, its name and the index.
const BASE_SEED: u64 = 0x6469_6b65_2d63_6865; // "dike-che"

/// `default`, unless `DIKE_CASES` holds a number: the one knob that lets
/// CI run a suite's properties longer (or a laptop shorter).
pub fn count(default: u64) -> u64 {
    std::env::var("DIKE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `property` on cases `0..n` of the property called `name`.
///
/// # Panics
/// With the property's own panic message, prefixed by `name`, the case
/// index and the case seed, as soon as one case panics.
pub fn cases(name: &str, n: u64, mut property: impl FnMut(&mut Gen)) {
    let first_seed = name
        .bytes()
        .fold(BASE_SEED, |h, b| splitmix64(h ^ u64::from(b)));
    for case in 0..n {
        let seed = first_seed.wrapping_add(case);
        let mut g = Gen {
            rng: Rng::seed_from_u64(seed),
            case,
        };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied());
            match why {
                Some(why) => panic!(
                    "property {name} failed at case {case} of {n} (seed {seed:#018x}): {why}"
                ),
                None => resume_unwind(panic),
            }
        }
    }
}

/// What a property body draws its inputs from: one seeded [`Rng`] per case.
#[derive(Debug)]
pub struct Gen {
    rng: Rng,
    case: u64,
}

impl Gen {
    /// This case's index in `0..n`.
    pub fn case(&self) -> u64 {
        self.case
    }

    /// A uniform draw from `range`; see [`Rng::random_range`].
    pub fn range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        self.rng.random_range(range)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() >> 63 == 1
    }

    /// One of `items`, uniformly.
    ///
    /// # Panics
    /// If `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0..items.len())]
    }

    /// `f` called a number of times drawn from `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.range(len)).map(|_| f(self)).collect()
    }

    /// Uniform bytes, a number of them drawn from `len`.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        self.vec(len, |g| g.range(0..=u8::MAX))
    }

    /// A string over the characters of `alphabet`, its length in
    /// characters drawn from `len`.
    pub fn string(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        (0..self.range(len))
            .map(|_| *self.pick(&alphabet))
            .collect()
    }

    /// A Unicode scalar value that is not a control character: printable
    /// ASCII half of the time, otherwise split between the rest of the
    /// Basic Multilingual Plane and the planes above it.
    pub fn char(&mut self) -> char {
        loop {
            let code = match self.range(0..4u32) {
                0 | 1 => self.range(0x20..0x7f),
                2 => self.range(0x80..0x1_0000),
                _ => self.range(0x1_0000..0x11_0000),
            };
            // `from_u32` refuses the surrogates.
            match char::from_u32(code) {
                Some(c) if !c.is_control() => return c,
                _ => {}
            }
        }
    }

    /// A string of [`Gen::char`]s, its length in characters drawn from `len`.
    pub fn text(&mut self, len: Range<usize>) -> String {
        (0..self.range(len)).map(|_| self.char()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_property_sees_the_same_cases_on_every_run() {
        let run = |name: &str| {
            let mut seen = Vec::new();
            cases(name, 20, |g| {
                seen.push((g.case(), g.range(0..1000u32), g.text(0..8)))
            });
            seen
        };
        assert_eq!(run("p"), run("p"));
        assert_ne!(run("p"), run("q"), "the name is part of the seed");
        assert_eq!(run("p").len(), 20);
    }

    #[test]
    fn a_failure_names_the_property_the_case_and_the_seed() {
        let fail = || {
            catch_unwind(|| {
                cases("never_draws_seven", 1000, |g| {
                    assert_ne!(g.range(0..10u8), 7)
                })
            })
            .unwrap_err()
            .downcast::<String>()
            .expect("a formatted message")
        };
        let message = fail();
        assert!(
            message.starts_with("property never_draws_seven failed at case "),
            "{message}"
        );
        assert!(message.contains(" of 1000 (seed 0x"), "{message}");
        assert!(message.contains("left: 7"), "the cause is kept: {message}");
        assert_eq!(message, fail(), "and fails the same way twice");
    }

    #[test]
    fn generators_respect_their_bounds() {
        cases("generators_respect_their_bounds", 200, |g| {
            let label = g.string("abc-", 1..5);
            assert!((1..5).contains(&label.len()) && label.chars().all(|c| "abc-".contains(c)));
            assert!(g.bytes(0..9).len() < 9);
            assert!(g.text(0..30).chars().all(|c| !c.is_control()));
            assert!([2, 3, 5].contains(g.pick(&[2, 3, 5])));
            assert_eq!(g.vec(3..4, |g| g.bool()).len(), 3);
        });
        let mut astral = false;
        cases("astral", 50, |g| {
            astral |= g.text(0..30).chars().any(|c| c as u32 > 0xffff)
        });
        assert!(astral, "non-BMP scalars are drawn");
    }
}
