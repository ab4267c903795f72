//! The frontend-cache equivalence wall, property-tested: random engine
//! specs from every family × seeded generated programs must produce
//! **bit-identical** results through capture-and-replay
//! ([`capture_frontend`]/[`replay_frontend`]) and through the Rust
//! reference path ([`nsf_workloads::run`], one serial machine per
//! configuration) — the full [`RunReport`] (cycles, register-file
//! statistics, occupancy samples) and the end-of-run memory residue
//! (enforced by the workload's own output check over the whole result
//! area, which [`replay_frontend`] runs on every lane). The generated
//! programs are counted loops of ALU / store / load / atomic / rfree
//! steps plus a nested subroutine chain.

use nsf_core::SpillEngine;
use nsf_isa::{Inst, ProgramBuilder, Reg};
use nsf_sim::{parse_engine, Machine, RegFileSpec, RunReport, SimConfig};
use nsf_trace::{capture_frontend, replay_frontend};
use nsf_workloads::harness::expect_words;
use nsf_workloads::Workload;
use proptest::prelude::*;

/// Result area the generated programs write their residue into.
const OUT: u32 = 0x0005_0000;

/// Words of residue pinned by the workload check.
const RESIDUE_WORDS: u32 = 24;

#[derive(Clone, Copy, Debug)]
enum Action {
    Alu(AluOp, i32),
    Store(u32),
    LoadAdd(u32),
    Amo(u32, i32),
    Free,
    CallSub,
}

#[derive(Clone, Copy, Debug)]
enum AluOp {
    Add,
    Sub,
    Mul,
    Xor,
    Sll,
    Slt,
}

impl AluOp {
    fn inst(self, rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        match self {
            AluOp::Add => Inst::Add { rd, rs1, rs2 },
            AluOp::Sub => Inst::Sub { rd, rs1, rs2 },
            AluOp::Mul => Inst::Mul { rd, rs1, rs2 },
            AluOp::Xor => Inst::Xor { rd, rs1, rs2 },
            AluOp::Sll => Inst::Sll { rd, rs1, rs2 },
            AluOp::Slt => Inst::Slt { rd, rs1, rs2 },
        }
    }
}

#[derive(Clone, Debug)]
struct ProgSpec {
    actions: Vec<Action>,
    iters: i32,
    call_depth: u32,
}

fn arb_alu() -> impl Strategy<Value = AluOp> {
    proptest::sample::select(vec![
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Slt,
    ])
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => (arb_alu(), any::<i32>()).prop_map(|(op, c)| Action::Alu(op, c)),
        2 => (1u32..RESIDUE_WORDS).prop_map(Action::Store),
        2 => (1u32..RESIDUE_WORDS).prop_map(Action::LoadAdd),
        1 => ((1u32..RESIDUE_WORDS), -3i32..4).prop_map(|(k, d)| Action::Amo(k, d)),
        1 => Just(Action::Free),
        2 => Just(Action::CallSub),
    ]
}

fn arb_prog() -> impl Strategy<Value = ProgSpec> {
    (
        proptest::collection::vec(arb_action(), 1..10),
        1i32..5,
        0u32..3,
    )
        .prop_map(|(actions, iters, call_depth)| ProgSpec {
            actions,
            iters,
            call_depth,
        })
}

/// Materializes a [`ProgSpec`] as a real program (always batchable:
/// single-threaded, no channels, no remote operations).
fn build_program(spec: &ProgSpec) -> nsf_isa::Program {
    let r = Reg::R;
    let g = Reg::G;
    let mut b = ProgramBuilder::new();
    let subs: Vec<_> = (0..spec.call_depth).map(|_| b.new_label()).collect();
    b.load_const(r(6), OUT as i32);
    b.load_const(r(2), 0);
    b.load_const(r(5), 0);
    b.load_const(r(4), spec.iters);
    let top = b.new_label();
    b.bind(top);
    for &a in &spec.actions {
        match a {
            Action::Alu(op, c) => {
                b.load_const(r(0), c);
                b.emit(op.inst(r(2), r(2), r(0)));
            }
            Action::Store(k) => {
                b.emit(Inst::Sw {
                    base: r(6),
                    src: r(2),
                    imm: k as i32,
                });
            }
            Action::LoadAdd(k) => {
                b.emit(Inst::Lw {
                    rd: r(1),
                    base: r(6),
                    imm: k as i32,
                });
                b.emit(Inst::Add {
                    rd: r(2),
                    rs1: r(2),
                    rs2: r(1),
                });
            }
            Action::Amo(k, d) => {
                b.emit(Inst::AmoAdd {
                    rd: r(7),
                    base: r(6),
                    imm: d,
                });
                b.emit(Inst::Sw {
                    base: r(6),
                    src: r(7),
                    imm: k as i32,
                });
            }
            Action::Free => {
                b.load_const(r(7), 1);
                b.emit(Inst::RFree { reg: r(7) });
            }
            Action::CallSub => {
                if let Some(&first) = subs.first() {
                    b.call(first);
                    b.emit(Inst::Add {
                        rd: r(2),
                        rs1: r(2),
                        rs2: g(1),
                    });
                }
            }
        }
    }
    b.emit(Inst::Addi {
        rd: r(5),
        rs1: r(5),
        imm: 1,
    });
    b.bne(r(5), r(4), top);
    b.emit(Inst::Sw {
        base: r(6),
        src: r(2),
        imm: 0,
    });
    b.emit(Inst::Halt);
    for (i, &label) in subs.iter().enumerate() {
        b.bind(label);
        if let Some(&next) = subs.get(i + 1) {
            b.call(next);
        }
        b.load_const(r(0), 3 + i as i32);
        b.emit(Inst::Add {
            rd: g(1),
            rs1: g(1),
            rs2: r(0),
        });
        b.emit(Inst::Ret);
    }
    b.finish("main").unwrap()
}

/// A random engine spec drawn from all five families (two spill-engine
/// flavours where the organization supports both).
fn arb_spec() -> impl Strategy<Value = RegFileSpec> {
    prop_oneof![
        (16u32..=128).prop_map(RegFileSpec::paper_nsf),
        ((2u32..=8), (12u8..=32)).prop_map(|(f, r)| RegFileSpec::paper_segmented(f, r)),
        ((2u32..=8), (12u8..=32)).prop_map(|(f, r)| RegFileSpec::segmented_valid_only(f, r)),
        (12u8..=32).prop_map(|regs| RegFileSpec::Conventional {
            regs,
            engine: SpillEngine::hardware(),
        }),
        (12u8..=32).prop_map(|regs| RegFileSpec::Conventional {
            regs,
            engine: SpillEngine::software(),
        }),
        (12u8..=32).prop_map(RegFileSpec::sparc_windows),
        Just(RegFileSpec::Oracle),
    ]
}

/// Wraps a generated program as a [`Workload`] whose check pins the
/// whole result-area residue to `expected` — so every capture and every
/// replayed lane is validated against the serial reference's memory,
/// not merely against each other.
fn make_workload(program: nsf_isa::Program, expected: Vec<u32>) -> Workload {
    Workload {
        name: "fcache-prop",
        parallel: false,
        program,
        source_lines: 0,
        mem_init: Vec::new(),
        check: expect_words(OUT, expected),
    }
}

/// Serial reference: one fresh [`Machine`] per configuration.
fn run_serial(program: &nsf_isa::Program, cfgs: &[SimConfig]) -> Vec<(RunReport, Vec<u32>)> {
    cfgs.iter()
        .map(|&cfg| {
            let mut m = Machine::new(program.clone(), cfg).unwrap();
            let report = m.run_and_keep().unwrap();
            let residue = (0..RESIDUE_WORDS).map(|k| m.mem.peek(OUT + k)).collect();
            (report, residue)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random engine specs × random programs: capture the frontend once
    /// under the first configuration, replay it into every configuration
    /// (including the capture's own), and require bit-identical reports
    /// plus the serial run's exact memory residue in every lane.
    #[test]
    fn cached_replay_is_bit_identical_to_live(
        spec in arb_prog(),
        engines in proptest::collection::vec(arb_spec(), 2..6),
    ) {
        let program = build_program(&spec);
        let cfgs: Vec<SimConfig> = engines.into_iter().map(SimConfig::with_regfile).collect();
        let serial = run_serial(&program, &cfgs);
        let w = make_workload(program, serial[0].1.clone());
        // Engines only change timing, never values: every lane's residue
        // equals lane 0's, so one expected image pins them all.
        for (i, (_, residue)) in serial.iter().enumerate() {
            prop_assert_eq!(&serial[0].1, residue, "lane {} residue differs serially", i);
        }

        let buf = capture_frontend(&w, cfgs[0]).unwrap();
        prop_assert_eq!(&buf.report, &serial[0].0, "capture must equal the live run");

        let replayed = replay_frontend(&buf, &w, &cfgs).unwrap();
        prop_assert_eq!(replayed.len(), serial.len());
        for (i, ((want, _), got)) in serial.iter().zip(&replayed).enumerate() {
            prop_assert_eq!(want, got, "replayed lane {} report", i);
        }
    }

    /// One lane from each of the five families side by side, replayed
    /// from a single captured buffer: the mixed set stays exact.
    #[test]
    fn all_five_families_replay_from_one_buffer(
        spec in arb_prog(),
        nsf_total in 16u32..=128,
        frames in 2u32..=6,
        frame_regs in 12u8..=32,
        conv_regs in 12u8..=32,
        win_regs in 12u8..=32,
    ) {
        let program = build_program(&spec);
        let cfgs: Vec<SimConfig> = [
            RegFileSpec::paper_nsf(nsf_total),
            RegFileSpec::paper_segmented(frames, frame_regs),
            RegFileSpec::Conventional { regs: conv_regs, engine: SpillEngine::hardware() },
            RegFileSpec::sparc_windows(win_regs),
            RegFileSpec::Oracle,
        ]
        .into_iter()
        .map(SimConfig::with_regfile)
        .collect();

        let serial = run_serial(&program, &cfgs);
        let w = make_workload(program, serial[0].1.clone());
        let buf = capture_frontend(&w, cfgs[0]).unwrap();
        let replayed = replay_frontend(&buf, &w, &cfgs).unwrap();
        for (i, ((want, _), got)) in serial.iter().zip(&replayed).enumerate() {
            prop_assert_eq!(want, got, "family lane {} report", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An explorer-sized cell: 19 lanes over all six explorer families
    /// (NSF at three line widths, segmented with hardware, software and
    /// valid-bit transfers, windowed, conventional), replayed from one
    /// stream long enough to span several replay tiles.
    #[test]
    fn nineteen_lanes_over_six_families_span_tiles(
        actions in proptest::collection::vec(arb_action(), 4..10),
        iters in 600i32..900,
        call_depth in 0u32..3,
    ) {
        let program = build_program(&ProgSpec { actions, iters, call_depth });
        let cfgs: Vec<SimConfig> = EXPLORER_FAN
            .iter()
            .map(|s| SimConfig::with_regfile(parse_engine(s).unwrap()))
            .collect();
        let serial = run_serial(&program, &cfgs);
        let w = make_workload(program, serial[0].1.clone());
        let buf = capture_frontend(&w, cfgs[0]).unwrap();
        // Replay tiles hold 4096 ops; this stream spans at least two.
        prop_assert!(buf.events > 4096, "stream of {} events fits one tile", buf.events);
        let replayed = replay_frontend(&buf, &w, &cfgs).unwrap();
        for (i, ((want, _), got)) in serial.iter().zip(&replayed).enumerate() {
            prop_assert_eq!(want, got, "{} (lane {})", EXPLORER_FAN[i], i);
        }
    }
}

/// Nineteen engines over the explorer's six families, each able to hold
/// the generated programs' contexts.
const EXPLORER_FAN: [&str; 19] = [
    "nsf:16",
    "nsf:32",
    "nsf:64",
    "nsf:32x2",
    "nsf:64x2",
    "nsf:64x4",
    "segmented:2x12",
    "segmented:3x16",
    "segmented:4x20",
    "segmented-sw:2x12",
    "segmented-sw:3x16",
    "segmented-sw:4x20",
    "segmented-valid:2x12",
    "segmented-valid:3x16",
    "segmented-valid:4x20",
    "windowed:12",
    "windowed:20",
    "conventional:12",
    "conventional:20",
];
