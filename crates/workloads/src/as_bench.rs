//! AS — coarse-grain parallel array sweeps.
//!
//! Table 1's `AS` is the coarsest parallel benchmark (18,940 instructions
//! per context switch): a handful of long-running threads that almost
//! never synchronise. Ours spawns K worker threads, each transforming and
//! reducing a disjoint slice of a large array (`A[i] = A[i]*3 + i`,
//! accumulating the sum), then folding the partial sums into a global
//! accumulator and a join counter. Threads block only at the very end, so
//! the processor switches contexts rarely — the behaviour the paper's
//! segmented register file is happiest with.
//!
//! Memory: `A[N]` at [`DATA_BASE`]; the global sum, join counter and
//! result live in the result area. Read-modify-write on the shared sum is
//! safe without an atomic because block multithreading only switches
//! threads at blocking instructions.

use crate::harness::{expect_words, Workload, DATA_BASE, RESULT_BASE};
use crate::util::lcg;
use nsf_isa::{Inst, ProgramBuilder, Reg};

const THREADS: u32 = 4;

struct Params {
    n: u32,
}

fn params(scale: u32) -> Params {
    match scale {
        0 => Params { n: 256 },
        1 => Params { n: 8192 },
        s => Params { n: 8192 * s },
    }
}

fn initial_array(p: &Params) -> Vec<u32> {
    let mut x = 0xA5A5_0001u32;
    (0..p.n)
        .map(|_| {
            x = lcg(x);
            x >> 12
        })
        .collect()
}

fn reference(p: &Params) -> u32 {
    let mut sum = 0u32;
    for (i, a) in initial_array(p).iter().enumerate() {
        sum = sum.wrapping_add(a.wrapping_mul(3).wrapping_add(i as u32));
    }
    sum
}

/// Builds the AS workload at the given scale.
pub fn build(scale: u32) -> Workload {
    let p = params(scale);
    let chunk = (p.n / THREADS) as i32;
    let a_base = DATA_BASE as i32;
    let sum_addr = (RESULT_BASE + 8) as i32;
    let join_addr = (RESULT_BASE + 9) as i32;
    let r = Reg::R;

    let mut b = ProgramBuilder::new();
    let worker = b.new_label();

    // main: join = K, spawn workers, wait, publish the sum.
    b.export("main");
    b.load_const(r(0), THREADS as i32);
    b.load_const(r(1), join_addr);
    b.emit(Inst::Sw {
        base: r(1),
        src: r(0),
        imm: 0,
    });
    for k in 0..THREADS {
        b.load_const(r(2), k as i32);
        b.spawn(worker, r(2));
    }
    b.emit(Inst::SyncWait { base: r(1), imm: 0 });
    b.load_const(r(3), sum_addr);
    b.emit(Inst::Lw {
        rd: r(4),
        base: r(3),
        imm: 0,
    });
    b.load_const(r(5), RESULT_BASE as i32);
    b.emit(Inst::Sw {
        base: r(5),
        src: r(4),
        imm: 0,
    });
    b.emit(Inst::Halt);

    // worker(k): sweep slice [k*chunk, (k+1)*chunk).
    b.bind(worker);
    b.export("worker");
    b.emit(Inst::Mv {
        rd: r(0),
        rs1: nsf_isa::RV,
    }); // k
    b.load_const(r(1), chunk);
    b.emit(Inst::Mul {
        rd: r(2),
        rs1: r(0),
        rs2: r(1),
    }); // lo = running index
    b.emit(Inst::Add {
        rd: r(3),
        rs1: r(2),
        rs2: r(1),
    }); // hi
    b.load_const(r(4), a_base);
    b.emit(Inst::Add {
        rd: r(5),
        rs1: r(4),
        rs2: r(2),
    }); // ptr
    b.emit(Inst::Add {
        rd: r(6),
        rs1: r(4),
        rs2: r(3),
    }); // end
    b.emit(Inst::Li { rd: r(7), imm: 0 }); // partial sum
    b.emit(Inst::Li { rd: r(8), imm: 3 }); // multiplier, live whole thread
    let loop_hdr = b.new_label();
    let loop_end = b.new_label();
    b.bind(loop_hdr);
    b.bge(r(5), r(6), loop_end);
    b.emit(Inst::Lw {
        rd: r(10),
        base: r(5),
        imm: 0,
    });
    b.emit(Inst::Mul {
        rd: r(11),
        rs1: r(10),
        rs2: r(8),
    });
    b.emit(Inst::Add {
        rd: r(12),
        rs1: r(11),
        rs2: r(2),
    }); // + index
    b.emit(Inst::Sw {
        base: r(5),
        src: r(12),
        imm: 0,
    });
    b.emit(Inst::Add {
        rd: r(7),
        rs1: r(7),
        rs2: r(12),
    });
    b.emit(Inst::Addi {
        rd: r(5),
        rs1: r(5),
        imm: 1,
    });
    b.emit(Inst::Addi {
        rd: r(2),
        rs1: r(2),
        imm: 1,
    });
    // Scheduling quantum: rotate threads every 256 elements, so the
    // resident-thread set actually cycles like on the paper's machine.
    let no_yield = b.new_label();
    b.emit(Inst::Andi {
        rd: r(9),
        rs1: r(2),
        imm: 255,
    });
    b.emit(Inst::Li { rd: r(18), imm: 0 });
    b.bne(r(9), r(18), no_yield);
    b.emit(Inst::Yield);
    b.bind(no_yield);
    b.jmp(loop_hdr);
    b.bind(loop_end);
    // Fold into the shared sum (non-blocking RMW is atomic under block
    // multithreading), then join.
    b.load_const(r(13), sum_addr);
    b.emit(Inst::Lw {
        rd: r(14),
        base: r(13),
        imm: 0,
    });
    b.emit(Inst::Add {
        rd: r(15),
        rs1: r(14),
        rs2: r(7),
    });
    b.emit(Inst::Sw {
        base: r(13),
        src: r(15),
        imm: 0,
    });
    b.load_const(r(16), join_addr);
    b.emit(Inst::AmoAdd {
        rd: r(17),
        base: r(16),
        imm: -1,
    });
    b.emit(Inst::Halt);

    let program = b.finish("main").expect("as_bench builds");
    let expected = reference(&p);
    Workload {
        name: "AS",
        parallel: true,
        program,
        source_lines: include_str!("as_bench.rs").lines().count(),
        mem_init: vec![(DATA_BASE, initial_array(&p))],
        check: expect_words(RESULT_BASE, vec![expected]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run, WorkloadError};
    use nsf_sim::SimConfig;

    #[test]
    fn computes_reference_sum() {
        let w = build(0);
        let r = run(&w, SimConfig::default()).expect("as validates");
        assert_eq!(r.spawns, u64::from(THREADS));
        // Coarse grain: long uninterrupted runs between switches.
        assert!(
            r.instrs_per_switch() > 100.0,
            "AS must be coarse-grained, got {}",
            r.instrs_per_switch()
        );
    }

    #[test]
    fn preemption_breaks_the_plain_fold() {
        // The fold into the shared sum is a plain load/add/store, atomic
        // only under block multithreading: a quantum can preempt a thread
        // between its load and its store and lose another's partial sum.
        // The output check must catch that, never report the run.
        let cfg = SimConfig {
            quantum: Some(4),
            ..SimConfig::default()
        };
        let err = run(&build(0), cfg).expect_err("a lost update must not validate");
        assert!(
            matches!(err, WorkloadError::CheckFailed { name: "AS", .. }),
            "{err}"
        );
    }
}
