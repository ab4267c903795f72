//! Synthetic workload generators for sweeps and ablations.
//!
//! Real benchmarks fix their call depth and register pressure; these
//! generators expose them as parameters, which the depth sweep, the
//! ablations, simbench's generated workloads and the property tests
//! sweep:
//!
//! * [`sequential`] — a recursive call tree of configurable depth and
//!   fan-out, with a configurable number of live locals per activation;
//! * [`parallel`] — T threads of configurable run length between yields,
//!   each keeping a configurable number of registers active.

use crate::harness::{expect_words, Workload, RESULT_BASE};
use nsf_compiler::{compile, BinOp, CompileOpts, Cond, FuncBuilder, Module, Operand};
use nsf_isa::{Inst, ProgramBuilder, Reg};

/// Parameters of the [`sequential`] generator.
#[derive(Clone, Copy, Debug)]
pub struct SeqParams {
    /// Recursion depth (call-chain length).
    pub depth: u32,
    /// Recursive calls per activation.
    pub fanout: u32,
    /// Live locals per activation (register pressure).
    pub locals: u32,
}

impl Default for SeqParams {
    fn default() -> Self {
        SeqParams {
            depth: 8,
            fanout: 2,
            locals: 8,
        }
    }
}

/// Mirror of the generated recursive function, for the output check.
fn seq_reference(p: &SeqParams, d: u32, x: u32) -> u32 {
    // locals l_k = x + k, folded into acc.
    let mut acc = x;
    for k in 0..p.locals {
        acc = acc.wrapping_add(x.wrapping_add(k));
    }
    if d == 0 {
        return acc;
    }
    for _ in 0..p.fanout {
        acc = acc.wrapping_add(seq_reference(p, d - 1, acc & 0xFFFF));
    }
    acc
}

/// Builds a synthetic sequential workload: `rec(depth, seed)` where each
/// activation touches `locals` registers and recurses `fanout` times.
pub fn sequential(p: SeqParams) -> Workload {
    let rec = {
        let mut f = FuncBuilder::new("rec", 2);
        let d = f.param(0);
        let x = f.param(1);
        let acc = f.copy(x);
        // `locals` live values, all folded in (they overlap, forcing the
        // allocator to keep them simultaneously live).
        let vals: Vec<_> = (0..p.locals)
            .map(|k| f.bin(BinOp::Add, x, k as i32))
            .collect();
        for v in vals {
            f.bin_to(acc, BinOp::Add, acc, v);
        }
        let base = f.new_block();
        let recurse = f.new_block();
        f.br(Cond::Eq, d, 0, base, recurse);
        f.switch_to(base);
        f.ret(Some(acc.into()));
        f.switch_to(recurse);
        let dm1 = f.bin(BinOp::Sub, d, 1);
        for _ in 0..p.fanout {
            let arg = f.bin(BinOp::And, acc, 0xFFFF);
            let sub = f
                .call("rec", vec![Operand::Reg(dm1), Operand::Reg(arg)], true)
                .expect("ret");
            f.bin_to(acc, BinOp::Add, acc, sub);
        }
        f.ret(Some(acc.into()));
        f.finish()
    };

    let main = {
        let mut f = FuncBuilder::new("main", 0);
        let d = f.copy(p.depth as i32);
        let x = f.copy(1);
        let v = f
            .call("rec", vec![Operand::Reg(d), Operand::Reg(x)], true)
            .expect("ret");
        f.store(v, RESULT_BASE as i32, 0);
        f.ret(None);
        f.finish()
    };

    let module = Module::default().with(main).with(rec);
    let program = compile(&module, "main", CompileOpts::default()).expect("synth compiles");
    let expected = seq_reference(&p, p.depth, 1);
    Workload {
        name: "SynthSeq",
        parallel: false,
        program,
        source_lines: include_str!("synth.rs").lines().count(),
        mem_init: vec![],
        check: expect_words(RESULT_BASE, vec![expected]),
    }
}

/// Parameters of the [`parallel`] generator.
#[derive(Clone, Copy, Debug)]
pub struct ParParams {
    /// Concurrent threads.
    pub threads: u32,
    /// Loop iterations per thread.
    pub iters: u32,
    /// Instructions of straight-line work between yields (approximate).
    pub work: u32,
    /// Context registers each thread keeps live (2..=30).
    pub active_regs: u8,
}

impl Default for ParParams {
    fn default() -> Self {
        ParParams {
            threads: 8,
            iters: 32,
            work: 20,
            active_regs: 20,
        }
    }
}

/// Builds a synthetic parallel workload: each thread keeps
/// `active_regs` registers live and yields every ~`work` instructions.
pub fn parallel(p: ParParams) -> Workload {
    assert!((2..=30).contains(&p.active_regs), "active_regs in 2..=30");
    let join_addr = (RESULT_BASE + 8) as i32;
    let r = Reg::R;
    let mut b = ProgramBuilder::new();
    let worker = b.new_label();

    b.export("main");
    b.load_const(r(0), p.threads as i32);
    b.load_const(r(1), join_addr);
    b.emit(Inst::Sw {
        base: r(1),
        src: r(0),
        imm: 0,
    });
    for k in 0..p.threads {
        b.load_const(r(2), k as i32 + 1);
        b.spawn(worker, r(2));
    }
    b.emit(Inst::SyncWait { base: r(1), imm: 0 });
    // Publish a token so the check has something to verify.
    b.load_const(r(3), RESULT_BASE as i32);
    b.load_const(r(4), 0x600D);
    b.emit(Inst::Sw {
        base: r(3),
        src: r(4),
        imm: 0,
    });
    b.emit(Inst::Halt);

    b.bind(worker);
    b.export("worker");
    let live = p.active_regs;
    // Materialise `live` registers, all kept live across the loop.
    for i in 0..live {
        b.emit(Inst::Li {
            rd: r(i),
            imm: i32::from(i) + 1,
        });
    }
    let ctr = r(30);
    let limit = r(31);
    b.emit(Inst::Li { rd: ctr, imm: 0 });
    b.load_const(limit, p.iters as i32);
    let hdr = b.new_label();
    let end = b.new_label();
    b.bind(hdr);
    b.bge(ctr, limit, end);
    // ~`work` instructions touching all the live registers in a ring.
    let mut emitted = 0;
    while emitted < p.work {
        for i in 0..live {
            let j = (i + 1) % live;
            b.emit(Inst::Add {
                rd: r(i),
                rs1: r(i),
                rs2: r(j),
            });
            emitted += 1;
            if emitted >= p.work {
                break;
            }
        }
    }
    b.emit(Inst::Yield);
    b.emit(Inst::Addi {
        rd: ctr,
        rs1: ctr,
        imm: 1,
    });
    b.jmp(hdr);
    b.bind(end);
    b.load_const(r(29), join_addr);
    b.emit(Inst::AmoAdd {
        rd: r(28),
        base: r(29),
        imm: -1,
    });
    b.emit(Inst::Halt);

    let program = b.finish("main").expect("synth parallel builds");
    Workload {
        name: "SynthPar",
        parallel: true,
        program,
        source_lines: include_str!("synth.rs").lines().count(),
        mem_init: vec![],
        check: expect_words(RESULT_BASE, vec![0x600D]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run;
    use nsf_sim::SimConfig;

    #[test]
    fn sequential_depth_drives_call_chain() {
        let w = sequential(SeqParams {
            depth: 6,
            fanout: 1,
            locals: 6,
        });
        let r = run(&w, SimConfig::default()).expect("synth seq validates");
        assert!(r.calls >= 6);
    }

    #[test]
    fn parallel_yields_drive_switches() {
        let w = parallel(ParParams {
            threads: 4,
            iters: 8,
            work: 16,
            active_regs: 12,
        });
        let r = run(&w, SimConfig::default()).expect("synth par validates");
        assert!(r.thread_switches > 8, "yields must rotate threads");
    }

    #[test]
    #[should_panic(expected = "active_regs")]
    fn parallel_rejects_bad_pressure() {
        parallel(ParParams {
            active_regs: 31,
            ..Default::default()
        });
    }
}
