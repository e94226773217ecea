#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # teleios-check — seeded property testing for the workspace's tests
//!
//! [`forall`] runs a property over [`CASES`] generated inputs. A
//! generator is a plain function of a [`Gen`], which hands out bounded
//! choices from the workspace's one seeded stream and records them.
//! When a case fails, its recorded choices are shrunk by halving — each
//! choice towards zero, so numbers fall to their lower bound and
//! vectors get shorter — and the input is regenerated from them; the
//! smallest still-failing input is reported together with the seed
//! that [`check_seed`] turns back into a named regression test.
//!
//! ```
//! teleios_check::forall(
//!     |g| g.vec(0..20, |g| g.int(-100..100)),
//!     |v| assert!(v.iter().all(|x| (-100..100).contains(x))),
//! );
//! ```
//!
//! [`fuzz_text`] is the byte-level loop for text decoders: seeds cut,
//! mutated and replaced by random bytes, every input answered with
//! `Ok` or `Err` — never a panic — inside a time bound.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

pub use teleios_geo::SplitMix64;

/// Cases [`forall`] runs: seeds `0..CASES`.
pub const CASES: u64 = 256;

/// Re-runs of the property a failing case may spend on shrinking.
const SHRINK_BUDGET: usize = 400;

/// The source of a generated input's choices: fresh draws from a
/// seeded stream, or (while shrinking) a replayed choice list that
/// reads as zeros once exhausted.
pub struct Gen {
    rng: SplitMix64,
    replay: Option<Vec<u64>>,
    choices: Vec<u64>,
}

impl Gen {
    fn new(seed: u64, replay: Option<Vec<u64>>) -> Gen {
        Gen { rng: SplitMix64::new(seed), replay, choices: Vec::new() }
    }

    /// Uniform in `0..n` (`n` ≥ 1): the one primitive every other
    /// generator is built from, so every input shrinks the same way.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n.max(1);
        let choice = match &self.replay {
            Some(replay) => replay.get(self.choices.len()).map_or(0, |&c| c as usize).min(n - 1),
            None => self.rng.below(n),
        };
        self.choices.push(choice as u64);
        choice
    }

    /// Uniform in the half-open integer range.
    pub fn int(&mut self, range: Range<i64>) -> i64 {
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.below(span as usize) as i64)
    }

    /// Uniform in the half-open range of sizes, counts or indexes.
    pub fn size(&mut self, range: Range<usize>) -> usize {
        range.start + self.below(range.end - range.start)
    }

    /// Uniform in `[low, high)`, on a 2⁵³-step grid.
    pub fn float(&mut self, range: Range<f64>) -> f64 {
        let unit = self.below(1 << 53) as f64 / (1u64 << 53) as f64;
        range.start + unit * (range.end - range.start)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    /// A vector whose length is drawn from `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.size(len)).map(|_| item(self)).collect()
    }

    /// A string of `len` characters drawn from `alphabet`.
    pub fn string(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        self.vec(len, |g| alphabet[g.below(alphabet.len())]).into_iter().collect()
    }
}

/// Run `property` on [`CASES`] inputs from `generate`. The property
/// fails by panicking (`assert!`, `unwrap`, …); the failure is shrunk
/// and re-raised with the counterexample and its seed.
pub fn forall<T: Debug>(generate: impl Fn(&mut Gen) -> T, property: impl Fn(T)) {
    for seed in 0..CASES {
        check_seed(seed, &generate, &property);
    }
}

/// Run `property` on the single input `seed` generates — how a seed
/// printed by a failing [`forall`] becomes a named regression test.
pub fn check_seed<T: Debug>(seed: u64, generate: impl Fn(&mut Gen) -> T, property: impl Fn(T)) {
    // Why the input the choices regenerate to fails, or `None`.
    let failure = |gen: &mut Gen| -> Option<String> {
        let input = generate(gen);
        let panic = catch_unwind(AssertUnwindSafe(|| property(input))).err()?;
        let text = panic.downcast_ref::<String>().cloned();
        Some(text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string())).unwrap_or_default())
    };
    let mut gen = Gen::new(seed, None);
    let Some(mut message) = failure(&mut gen) else {
        return;
    };
    let mut choices = gen.choices;
    let mut runs = 0;
    // Adopt `smaller(choices[i])` in place of `choices[i]` if the case still fails.
    let mut shrink = |choices: &mut Vec<u64>, i: usize, smaller: fn(u64) -> u64| -> bool {
        let Some(&current) = choices.get(i) else { return false };
        if smaller(current) >= current || runs == SHRINK_BUDGET {
            return false;
        }
        runs += 1;
        let mut candidate = choices.clone();
        candidate[i] = smaller(current);
        let mut gen = Gen::new(seed, Some(candidate));
        let Some(why) = failure(&mut gen) else { return false };
        // Keep what the generator actually read: a shorter vector reads fewer choices.
        (*choices, message) = (gen.choices, why);
        true
    };
    let mut i = 0;
    while i < choices.len() {
        // Zero is the big step; failing that, halve while the case still fails.
        if !shrink(&mut choices, i, |_| 0) {
            while shrink(&mut choices, i, |c| c / 2) {}
        }
        i += 1;
    }
    let minimal = generate(&mut Gen::new(seed, Some(choices)));
    // teleios-lint: allow(no-panic) — failure reporting channel of the checker itself
    panic!(
        "property failed at seed {seed} (re-run it alone with `teleios_check::check_seed({seed}, ..)`)\n\
         minimal counterexample after {runs} shrink runs: {minimal:#?}\n\
         failure: {message}"
    );
}

/// What [`fuzz_text`] substitutes for single bytes: the brackets,
/// quotes, sigils and separators the workspace's text grammars (Turtle,
/// stSPARQL, SQL, SciQL, WKT) turn on, plus a multi-byte UTF-8 character.
const STRUCTURAL: [&str; 18] =
    ["(", ")", "{", "}", "[", "]", "\"", "<", ">", ".", ":", "?", "_", "@", "^", "\\", "#", "Π"];

/// The longest one decoder call may take in [`fuzz_text`] — orders of
/// magnitude above what any seed needs, so only a runaway loop trips it.
const PER_INPUT: Duration = Duration::from_secs(2);

/// Feed `decode` every byte prefix of every seed, every seed with each
/// byte replaced by each `STRUCTURAL` string, and [`CASES`] random
/// byte strings (raw bytes mixed with structural ones) — all decoded to
/// text lossily. Each call must return, `Ok` or `Err` alike, within
/// `PER_INPUT`; a panic or an overrun fails with the input that caused it.
pub fn fuzz_text<T, E>(seeds: &[&str], decode: impl Fn(&str) -> Result<T, E>) {
    let run = |bytes: &[u8]| {
        let input = String::from_utf8_lossy(bytes);
        let started = Instant::now();
        let returned = catch_unwind(AssertUnwindSafe(|| decode(&input))).is_ok();
        assert!(returned, "decoder panicked on {input:?}");
        let took = started.elapsed();
        assert!(took < PER_INPUT, "decoder took {took:?} on {input:?}");
    };
    for seed in seeds.iter().map(|s| s.as_bytes()) {
        for cut in 0..=seed.len() {
            run(&seed[..cut]);
        }
        for at in 0..seed.len() {
            for with in STRUCTURAL {
                run(&[&seed[..at], with.as_bytes(), &seed[at + 1..]].concat());
            }
        }
    }
    for case in 0..CASES {
        let mut g = Gen::new(case, None);
        let bytes: Vec<u8> = (0..g.size(0..64))
            .flat_map(|_| match g.bool() {
                true => vec![g.below(256) as u8],
                false => STRUCTURAL[g.below(STRUCTURAL.len())].as_bytes().to_vec(),
            })
            .collect();
        run(&bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn failure_report(run: impl FnOnce()) -> String {
        let panic = catch_unwind(AssertUnwindSafe(run)).expect_err("the property must fail");
        panic.downcast_ref::<String>().expect("a formatted report").clone()
    }

    #[test]
    fn a_true_property_sees_every_case_and_generators_respect_their_bounds() {
        let cases = Cell::new(0);
        forall(
            |g| (g.int(-5..7), g.size(2..9), g.float(-1.5..2.5), g.vec(1..4, Gen::bool), g.string("ab", 0..6)),
            |(i, n, f, v, s)| {
                cases.set(cases.get() + 1);
                assert!((-5..7).contains(&i) && (2..9).contains(&n) && (-1.5..2.5).contains(&f));
                assert!((1..4).contains(&v.len()) && s.len() < 6 && s.chars().all(|c| "ab".contains(c)));
            },
        );
        assert_eq!(cases.get(), CASES);
        // The full i64 range is a legal request.
        forall(|g| g.int(i64::MIN..i64::MAX), |v| assert!(v < i64::MAX));
    }

    #[test]
    fn fuzz_text_reports_a_panicking_decoder_with_its_input() {
        fuzz_text(&["(a)"], |s: &str| if s.contains('(') { Ok(()) } else { Err(()) });
        // A decoder that indexes past a truncated input.
        let report = failure_report(|| fuzz_text(&["(a)"], |s: &str| Ok::<u8, ()>(s.as_bytes()[2])));
        assert!(report.contains("decoder panicked on \"\""), "{report}");
    }

    #[test]
    fn a_failure_is_shrunk_and_its_seed_reproduces_it() {
        let generate = |g: &mut Gen| g.vec(0..40, |g| g.int(10..1000));
        let property = |v: Vec<i64>| assert!(v.len() < 3, "too long: {}", v.len());
        let report = failure_report(|| forall(generate, property));
        assert!(report.contains("failure: too long: "), "{report}");
        // Elements fall to their lower bound; halving a length stops
        // within a factor of two of the boundary.
        let minimal: Vec<i64> = report.lines().filter_map(|l| l.trim().trim_end_matches(',').parse().ok()).collect();
        assert!((3..6).contains(&minimal.len()) && minimal.iter().all(|&v| v == 10), "{report}");

        let seed: u64 = report
            .split("seed ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("the report names its seed");
        assert!(failure_report(|| check_seed(seed, generate, property)).contains("too long"));
        // A seed whose case passes is silent.
        check_seed(seed, generate, |_| {});
    }
}
