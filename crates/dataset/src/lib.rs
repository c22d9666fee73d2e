//! # yali-dataset
//!
//! Synthetic corpora for the yali reproduction of "A Game-Based Framework
//! to Compare Program Classifiers and Evaders" (CGO 2023):
//!
//! - a **POJ-104-like** suite of [`NUM_PROBLEMS`] programming problems
//!   ([`problems`]), each able to emit hundreds of distinct author
//!   solutions ([`solution`]) — the stand-in for Mou et al.'s dataset;
//! - a **MIRAI family** generator and size-matched benign kernels
//!   ([`malware`]) for RQ8;
//! - the 16 **Benchmarks Game** programs ([`benchgame`]) for RQ6.
//!
//! Every generated program is a checked MiniC [`Program`]; `lower` it with
//! `yali-minic` to obtain IR.
//!
//! # Example
//!
//! ```
//! use yali_dataset::{problems, solution};
//! let specs = problems();
//! assert_eq!(specs.len(), yali_dataset::NUM_PROBLEMS);
//! let p = solution(1, 7); // author #7's solution to problem 1 (gcd)
//! let m = yali_minic::lower(&p);
//! assert!(m.num_insts() > 0);
//! ```

#![warn(missing_docs)]

pub mod benchgame;
pub mod malware;
pub mod problems_arrays;
pub mod problems_dp;
pub mod problems_math;
pub mod problems_misc;
pub mod spec;

pub use benchgame::{Benchmark, BENCHMARKS};
pub use malware::{benign_program, mirai_variant};
pub use spec::{InputSpec, ProblemSpec};

use std::sync::OnceLock;
use yali_minic::Program;

/// The number of problem classes (the paper's POJ-104 has 104).
pub const NUM_PROBLEMS: usize = 104;

/// All problem specifications, in stable class order (built once per
/// process).
pub fn problems() -> &'static [ProblemSpec] {
    static ALL: OnceLock<Vec<ProblemSpec>> = OnceLock::new();
    ALL.get_or_init(|| {
        let mut all = problems_math::specs();
        all.extend(problems_arrays::specs());
        all.extend(problems_dp::specs());
        all.extend(problems_misc::specs());
        all
    })
}

/// One author's solution to `problem` (class index), derived
/// deterministically from `author_seed`.
///
/// # Panics
///
/// Panics if `problem >= NUM_PROBLEMS`.
pub fn solution(problem: usize, author_seed: u64) -> Program {
    let specs = problems();
    assert!(problem < specs.len(), "problem {problem} out of range");
    specs[problem].author_solution(author_seed.wrapping_mul(2654435761).wrapping_add(problem as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use yali_ir::interp::{run, ExecConfig, Outcome, Val};

    #[test]
    fn one_hundred_and_four_problems_with_unique_names() {
        let specs = problems();
        assert_eq!(specs.len(), NUM_PROBLEMS);
        let names: std::collections::HashSet<&str> = specs.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), NUM_PROBLEMS, "duplicate problem names");
    }

    fn run_main(m: &yali_ir::Module, inputs: &[Val]) -> Result<Outcome, yali_ir::interp::ExecError> {
        let cfg = ExecConfig {
            fuel: 30_000_000,
            ..Default::default()
        };
        run(m, "main", &[], inputs, &cfg)
    }

    #[test]
    fn every_template_compiles_and_variants_agree_with_the_oracle() {
        // The Definition 2.1 requirement: all variants of a problem compute
        // the same reference function.
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        for (pid, spec) in problems().iter().enumerate() {
            let modules: Vec<yali_ir::Module> = (0..spec.variants.len())
                .map(|v| {
                    let p = spec.variant(v);
                    let m = yali_minic::lower(&p);
                    yali_ir::verify_module(&m)
                        .unwrap_or_else(|e| panic!("{} variant {v}: {e}", spec.name));
                    m
                })
                .collect();
            for trial in 0..3 {
                let inputs = spec.inputs.sample(&mut rng);
                let reference = run_main(&modules[0], &inputs).unwrap_or_else(|e| {
                    panic!("{} (#{pid}) variant 0 trial {trial}: {e} on {inputs:?}", spec.name)
                });
                for (v, m) in modules.iter().enumerate().skip(1) {
                    let out = run_main(m, &inputs).unwrap_or_else(|e| {
                        panic!("{} variant {v} trial {trial}: {e} on {inputs:?}", spec.name)
                    });
                    assert_eq!(
                        reference.output, out.output,
                        "{} variant {v} disagrees on {inputs:?}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn author_solutions_compile_and_match_the_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let specs = problems();
        for pid in (0..NUM_PROBLEMS).step_by(13) {
            let spec = &specs[pid];
            let base = yali_minic::lower(&spec.variant(0));
            for author in 0..4 {
                let p = solution(pid, author);
                let m = yali_minic::lower(&p);
                yali_ir::verify_module(&m)
                    .unwrap_or_else(|e| panic!("{} author {author}: {e}", spec.name));
                let inputs = spec.inputs.sample(&mut rng);
                let a = run_main(&base, &inputs).unwrap();
                let b = run_main(&m, &inputs).unwrap_or_else(|e| {
                    panic!("{} author {author}: {e}\n{}", spec.name, yali_minic::print(&p))
                });
                assert_eq!(a.output, b.output, "{} author {author} on {inputs:?}", spec.name);
            }
        }
    }

    #[test]
    fn authors_produce_diverse_histograms() {
        // Within-class diversity is what makes classification nontrivial.
        let hists: Vec<Vec<f64>> = (0..8)
            .map(|a| yali_embed::histogram(&yali_minic::lower(&solution(1, a))))
            .collect();
        let distinct: std::collections::HashSet<String> =
            hists.iter().map(|h| format!("{h:?}")).collect();
        assert!(distinct.len() >= 3, "only {} distinct histograms", distinct.len());
    }

    #[test]
    fn solutions_are_deterministic() {
        let a = yali_minic::print(&solution(5, 99));
        let b = yali_minic::print(&solution(5, 99));
        assert_eq!(a, b);
    }
}
