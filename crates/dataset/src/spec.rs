//! The programming-problem machinery: problem specifications, reference
//! oracles (Definition 2.1), and the author-variation engine that turns a
//! handful of hand-written variants into hundreds of distinct "human"
//! solutions per problem.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use yali_ir::interp::Val;
use yali_minic::Program;
use yali_obf::SourceTransform;

/// How a problem's random test inputs are drawn.
#[derive(Debug, Clone, Copy)]
pub enum InputSpec {
    /// `count` integers uniform in `[lo, hi]`.
    Ints {
        /// How many integers to read.
        count: usize,
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// A length `1..=max_len` followed by that many integers in `[lo, hi]`.
    IntArray {
        /// Maximum array length.
        max_len: usize,
        /// Element lower bound.
        lo: i64,
        /// Element upper bound.
        hi: i64,
    },
    /// Two arrays: a shared length then `2 × len` integers.
    TwoIntArrays {
        /// Maximum array length.
        max_len: usize,
        /// Element lower bound.
        lo: i64,
        /// Element upper bound.
        hi: i64,
    },
    /// A square matrix: an order `1..=max_n` then `n²` integers.
    IntMatrix {
        /// Maximum matrix order.
        max_n: usize,
        /// Element lower bound.
        lo: i64,
        /// Element upper bound.
        hi: i64,
    },
    /// `count` floats uniform in `[lo, hi]`.
    Floats {
        /// How many floats to read.
        count: usize,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// A length `1..=max_len` followed by that many floats.
    FloatArray {
        /// Maximum array length.
        max_len: usize,
        /// Element lower bound.
        lo: f64,
        /// Element upper bound.
        hi: f64,
    },
}

impl InputSpec {
    /// Draws one random input stream.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<Val> {
        match *self {
            InputSpec::Ints { count, lo, hi } => {
                (0..count).map(|_| Val::Int(rng.gen_range(lo..=hi))).collect()
            }
            InputSpec::IntArray { max_len, lo, hi } => {
                let n = rng.gen_range(1..=max_len);
                let mut v = vec![Val::Int(n as i64)];
                v.extend((0..n).map(|_| Val::Int(rng.gen_range(lo..=hi))));
                v
            }
            InputSpec::TwoIntArrays { max_len, lo, hi } => {
                let n = rng.gen_range(1..=max_len);
                let mut v = vec![Val::Int(n as i64)];
                v.extend((0..2 * n).map(|_| Val::Int(rng.gen_range(lo..=hi))));
                v
            }
            InputSpec::IntMatrix { max_n, lo, hi } => {
                let n = rng.gen_range(1..=max_n);
                let mut v = vec![Val::Int(n as i64)];
                v.extend((0..n * n).map(|_| Val::Int(rng.gen_range(lo..=hi))));
                v
            }
            InputSpec::Floats { count, lo, hi } => (0..count)
                .map(|_| Val::Float(round3(rng.gen_range(lo..=hi))))
                .collect(),
            InputSpec::FloatArray { max_len, lo, hi } => {
                let n = rng.gen_range(1..=max_len);
                let mut v = vec![Val::Int(n as i64)];
                v.extend((0..n).map(|_| Val::Float(round3(rng.gen_range(lo..=hi)))));
                v
            }
        }
    }
}

/// Rounds to 3 decimals so float oracles avoid representation noise.
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// One programming problem: a reference oracle defined by its variants'
/// common I/O behaviour (Definition 2.1).
#[derive(Debug, Clone)]
pub struct ProblemSpec {
    /// Short name (doubles as the class label).
    pub name: &'static str,
    /// Hand-written solution variants (MiniC sources; all must implement
    /// the same input → output function).
    pub variants: &'static [&'static str],
    /// Random-input distribution for the oracle.
    pub inputs: InputSpec,
}

/// The style transforms the author-variation engine may apply. This is a
/// *mild* subset of the evader's catalogue: renaming, loop style, operand
/// order, temporaries — the kind of diversity different humans produce.
const AUTHOR_STYLES: &[SourceTransform] = &[
    SourceTransform::ForToWhile,
    SourceTransform::JunkVariables,
    SourceTransform::NegateCondition,
    SourceTransform::SwapCommutative,
    SourceTransform::MirrorComparisons,
    SourceTransform::IntroduceTemps,
    SourceTransform::ExtraBraces,
    SourceTransform::RenameVariables,
    SourceTransform::ReorderDeclarations,
    SourceTransform::ArithmeticIdentity,
];

impl ProblemSpec {
    /// The base variant `idx` as a checked program. Each template is
    /// parsed and checked at most once per process, on first use; later
    /// calls clone the checked program.
    ///
    /// # Panics
    ///
    /// Panics if a template fails to parse or type-check: templates are
    /// compile-time constants, so that is a bug in this crate.
    pub fn variant(&self, idx: usize) -> Program {
        // Templates are `'static`, so a source's address and length name
        // it: two templates at one address are one string.
        static PARSED: Mutex<BTreeMap<(usize, usize), Program>> = Mutex::new(BTreeMap::new());
        let src = self.variants[idx % self.variants.len()];
        // A template that panics below inserts nothing, so a map poisoned
        // by it still holds only checked programs.
        let mut parsed = PARSED.lock().unwrap_or_else(PoisonError::into_inner);
        parsed
            .entry((src.as_ptr() as usize, src.len()))
            .or_insert_with(|| {
                let p = yali_minic::parse(src).unwrap_or_else(|e| {
                    panic!("template {}[{idx}] fails to parse: {e}\n{src}", self.name)
                });
                yali_minic::check(&p)
                    .unwrap_or_else(|e| panic!("template {}[{idx}] fails sema: {e}", self.name));
                p
            })
            .clone()
    }

    /// Produces one "author" solution: a random variant with random style
    /// transforms applied (all semantic-preserving).
    pub fn author_solution(&self, seed: u64) -> Program {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let idx = rng.gen_range(0..self.variants.len());
        let mut p = self.variant(idx);
        let n_styles = rng.gen_range(1..=5);
        let mut pool = AUTHOR_STYLES.to_vec();
        pool.shuffle(&mut rng);
        for &t in pool.iter().take(n_styles) {
            let mut candidate = p.clone();
            t.apply(&mut candidate, &mut rng);
            if yali_minic::check(&candidate).is_ok() {
                p = candidate;
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_specs_sample_within_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let spec = InputSpec::Ints {
            count: 5,
            lo: -3,
            hi: 9,
        };
        for _ in 0..50 {
            for v in spec.sample(&mut rng) {
                let Val::Int(i) = v else { panic!("non-int") };
                assert!((-3..=9).contains(&i));
            }
        }
    }

    #[test]
    fn array_specs_prefix_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let spec = InputSpec::IntArray {
            max_len: 7,
            lo: 0,
            hi: 1,
        };
        for _ in 0..20 {
            let v = spec.sample(&mut rng);
            let Val::Int(n) = v[0] else { panic!() };
            assert_eq!(v.len(), 1 + n as usize);
        }
    }

    #[test]
    fn matrix_spec_is_square() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let spec = InputSpec::IntMatrix {
            max_n: 4,
            lo: 0,
            hi: 5,
        };
        let v = spec.sample(&mut rng);
        let Val::Int(n) = v[0] else { panic!() };
        assert_eq!(v.len(), 1 + (n * n) as usize);
    }

    #[test]
    fn author_solutions_vary_by_seed() {
        let spec = ProblemSpec {
            name: "sum2",
            variants: &["void main() { int a = read_int(); int b = read_int(); print_int(a + b); }"],
            inputs: InputSpec::Ints {
                count: 2,
                lo: 0,
                hi: 9,
            },
        };
        let texts: std::collections::HashSet<String> = (0..12)
            .map(|s| yali_minic::print(&spec.author_solution(s)))
            .collect();
        assert!(texts.len() >= 4, "too little variation: {}", texts.len());
    }
}
