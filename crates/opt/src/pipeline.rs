//! Optimization pipelines mirroring clang's `-O0` … `-O3` levels.

use crate::{combine, dce, gvn, inline, licm, mem2reg};
use yali_ir::Module;

/// An optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// No optimization (the front end's raw output).
    #[default]
    O0,
    /// SSA construction plus local cleanups.
    O1,
    /// `O1` plus redundancy elimination and code motion.
    O2,
    /// `O2` plus inlining and an extra cleanup round.
    O3,
}

impl OptLevel {
    /// All levels, weakest first.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

    /// The conventional flag spelling (`-O2`).
    pub fn flag(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
            OptLevel::O3 => "-O3",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.flag())
    }
}

fn cleanup(m: &mut Module) {
    combine::run_module(m);
    crate::simplify::run_module(m);
    dce::run_module(m);
}

/// Optimizes the module in place at the given level.
///
/// # Examples
///
/// ```
/// use yali_opt::{optimize, OptLevel};
/// let mut m = yali_minic::compile("int f(int x) { int y = x; return y + 0; }")?;
/// let before = m.num_insts();
/// optimize(&mut m, OptLevel::O2);
/// assert!(m.num_insts() < before);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize(m: &mut Module, level: OptLevel) {
    match level {
        OptLevel::O0 => {}
        OptLevel::O1 => {
            mem2reg::run_module(m);
            cleanup(m);
            cleanup(m);
        }
        OptLevel::O2 => {
            mem2reg::run_module(m);
            cleanup(m);
            gvn::run_module(m);
            licm::run_module(m);
            cleanup(m);
            gvn::run_module(m);
            dce::run_module(m);
        }
        OptLevel::O3 => {
            mem2reg::run_module(m);
            cleanup(m);
            inline::run_module(m, &inline::InlineConfig::default());
            mem2reg::run_module(m);
            cleanup(m);
            gvn::run_module(m);
            licm::run_module(m);
            cleanup(m);
            gvn::run_module(m);
            licm::run_module(m);
            cleanup(m);
        }
    }
}

/// Returns an optimized copy of the module.
pub fn optimized(m: &Module, level: OptLevel) -> Module {
    let mut copy = m.clone();
    optimize(&mut copy, level);
    copy
}

/// Runs only SSA construction (the `-mem2reg` transformer of RQ7).
pub fn mem2reg_only(m: &mut Module) {
    mem2reg::run_module(m);
}

#[cfg(test)]
mod tests {
    use super::*;
    use yali_ir::interp::{run as exec, ExecConfig, Val};
    use yali_ir::verify_module;

    const PROGRAM: &str = r#"
        int helper(int x) { return x * 2 + 1; }
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (helper(i) % 3 == 0) { s += i; } else { s -= 1; }
            }
            return s;
        }
    "#;

    #[test]
    fn optimization_is_deterministic_and_blind_to_arena_numbering() {
        // Several promotable slots and loop invariants: the order of the
        // phis and of the hoisted instructions must follow the function,
        // never hash-map iteration or arena ids, so every run — and a run on
        // the module's printed-and-reparsed twin — prints the same module.
        let src = "int f(int n, int k) { int a = 0; int b = 1; int c = 2; int d = 3; \
                   for (int i = 0; i < n; i++) { a += k * 3; b = b + a; c = c - b; d = d + k * 5; } \
                   return a + b + c + d; }";
        let m0 = yali_minic::compile(src).unwrap();
        let twin = yali_ir::parse_module(&yali_ir::print_module(&m0)).unwrap();
        let want = yali_ir::print_module(&optimized(&m0, OptLevel::O3));
        for _ in 0..8 {
            assert_eq!(yali_ir::print_module(&optimized(&m0, OptLevel::O3)), want);
            assert_eq!(yali_ir::print_module(&optimized(&twin, OptLevel::O3)), want);
        }
    }

    #[test]
    fn all_levels_verify_and_agree() {
        let m0 = yali_minic::compile(PROGRAM).unwrap();
        let reference = exec(&m0, "f", &[Val::Int(50)], &[], &ExecConfig::default())
            .unwrap()
            .ret;
        for level in OptLevel::ALL {
            let m = optimized(&m0, level);
            verify_module(&m).unwrap_or_else(|e| panic!("{level}: {e}"));
            let out = exec(&m, "f", &[Val::Int(50)], &[], &ExecConfig::default()).unwrap();
            assert_eq!(out.ret, reference, "semantics diverged at {level}");
        }
    }

    #[test]
    fn higher_levels_run_fewer_steps() {
        let m0 = yali_minic::compile(PROGRAM).unwrap();
        let steps = |m: &Module| {
            exec(m, "f", &[Val::Int(80)], &[], &ExecConfig::default())
                .unwrap()
                .steps
        };
        let s0 = steps(&m0);
        let s1 = steps(&optimized(&m0, OptLevel::O1));
        let s3 = steps(&optimized(&m0, OptLevel::O3));
        assert!(s1 < s0, "O1 ({s1}) should beat O0 ({s0})");
        assert!(s3 < s1, "O3 ({s3}) should beat O1 ({s1})");
    }

    #[test]
    fn o3_inlines_the_helper() {
        let m = optimized(&yali_minic::compile(PROGRAM).unwrap(), OptLevel::O3);
        let f = m.function("f").unwrap();
        let calls = f
            .iter_insts()
            .filter(|&(_, i)| f.inst(i).op == yali_ir::Op::Call)
            .count();
        assert_eq!(calls, 0);
    }

    #[test]
    fn optimization_changes_the_opcode_histogram() {
        // The premise of RQ3: optimizers are evaders too.
        let m0 = yali_minic::compile(PROGRAM).unwrap();
        let m3 = optimized(&m0, OptLevel::O3);
        let histo = |m: &Module| {
            let mut h = vec![0usize; yali_ir::Op::COUNT];
            for f in m.definitions() {
                for (_, i) in f.iter_insts() {
                    h[f.inst(i).op.index()] += 1;
                }
            }
            h
        };
        assert_ne!(histo(&m0), histo(&m3));
    }

    #[test]
    fn flags_render() {
        assert_eq!(OptLevel::O3.flag(), "-O3");
        assert_eq!(OptLevel::default(), OptLevel::O0);
    }
}
