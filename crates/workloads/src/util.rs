//! Shared construction helpers for the benchmark programs.

use nsf_compiler::{BinOp, Cond, FuncBuilder, Operand, VReg};

/// Emits `for i in start..limit { body }` into an IR function and leaves
/// the builder positioned after the loop. The body closure receives the
/// induction variable.
pub fn counted_loop(
    b: &mut FuncBuilder,
    start: i32,
    limit: impl Into<Operand>,
    body: impl FnOnce(&mut FuncBuilder, VReg),
) {
    let limit = limit.into();
    let i = b.copy(start);
    let hdr = b.new_block();
    let bdy = b.new_block();
    let exit = b.new_block();
    b.jmp(hdr);
    b.switch_to(hdr);
    b.br(Cond::Lt, i, limit, bdy, exit);
    b.switch_to(bdy);
    body(b, i);
    b.bin_to(i, BinOp::Add, i, 1);
    b.jmp(hdr);
    b.switch_to(exit);
}

/// A deterministic 32-bit LCG matching the in-program generators
/// (`x' = x * 1664525 + 1013904223`).
pub fn lcg(x: u32) -> u32 {
    x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223)
}

/// The `Label` re-export used by benchmark builders.
pub use nsf_isa::builder::Label as AsmLabel;

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_compiler::{compile, CompileOpts, Module};

    #[test]
    fn counted_loop_compiles() {
        let mut f = FuncBuilder::new("main", 0);
        let acc = f.copy(0);
        counted_loop(&mut f, 0, 10, |f, i| {
            f.bin_to(acc, BinOp::Add, acc, i);
        });
        f.ret(Some(acc.into()));
        let m = Module::default().with(f.finish());
        let p = compile(&m, "main", CompileOpts::default()).unwrap();
        assert!(p.validate().is_ok());
    }

    #[test]
    fn lcg_is_deterministic() {
        assert_eq!(lcg(1), 1_015_568_748);
        assert_ne!(lcg(1), lcg(2));
    }
}
