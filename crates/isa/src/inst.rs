//! The instruction set.
//!
//! Every instruction reads at most two registers and writes at most one,
//! matching the three-ported (two read, one write) register files the paper
//! evaluates. Branch and jump targets are absolute instruction indices;
//! the [`crate::builder`] resolves symbolic labels to indices.

use crate::reg::Reg;
use std::fmt;

/// A machine instruction.
///
/// Immediates are architecturally 14-bit signed (see [`crate::encode`]);
/// the builder's `load_const` helper synthesises larger constants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Inst {
    // --- ALU, register-register ---------------------------------------
    /// `rd = rs1 + rs2` (wrapping).
    Add { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 - rs2` (wrapping).
    Sub { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 * rs2` (wrapping).
    Mul { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 / rs2` (signed; division by zero yields 0, like a trap
    /// handler returning a default).
    Div { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 % rs2` (signed; modulo by zero yields 0).
    Rem { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 & rs2`.
    And { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 | rs2`.
    Or { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 ^ rs2`.
    Xor { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 << (rs2 & 31)`.
    Sll { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 >> (rs2 & 31)` (logical).
    Srl { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 >> (rs2 & 31)` (arithmetic).
    Sra { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 < rs2) ? 1 : 0` (signed).
    Slt { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 < rs2) ? 1 : 0` (unsigned).
    Sltu { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 == rs2) ? 1 : 0`.
    Seq { rd: Reg, rs1: Reg, rs2: Reg },

    // --- ALU, register-immediate ---------------------------------------
    /// `rd = rs1 + imm`.
    Addi { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 & imm`.
    Andi { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 | imm`.
    Ori { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 ^ imm`.
    Xori { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 << imm`.
    Slli { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 >> imm` (logical).
    Srli { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 >> imm` (arithmetic).
    Srai { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = (rs1 < imm) ? 1 : 0` (signed).
    Slti { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = sign_extend(imm)`.
    Li { rd: Reg, imm: i32 },
    /// `rd = rs1` (register move).
    Mv { rd: Reg, rs1: Reg },

    // --- Memory ---------------------------------------------------------
    /// `rd = mem[rs1 + imm]` (word addressed, local memory).
    Lw { rd: Reg, base: Reg, imm: i32 },
    /// `mem[rs1 + imm] = rs2` (word addressed, local memory).
    Sw { base: Reg, src: Reg, imm: i32 },
    /// Remote load: `rd = mem[rs1 + imm]`, incurring the multiprocessor
    /// round-trip latency. On a block-multithreaded processor this blocks
    /// the issuing thread and triggers a context switch (paper §2).
    LwRemote { rd: Reg, base: Reg, imm: i32 },
    /// Remote store (fire and forget; completes after the network delay).
    SwRemote { base: Reg, src: Reg, imm: i32 },

    // --- Control flow -----------------------------------------------------
    /// Branch to `target` if `rs1 == rs2`.
    Beq { rs1: Reg, rs2: Reg, target: u32 },
    /// Branch to `target` if `rs1 != rs2`.
    Bne { rs1: Reg, rs2: Reg, target: u32 },
    /// Branch to `target` if `rs1 < rs2` (signed).
    Blt { rs1: Reg, rs2: Reg, target: u32 },
    /// Branch to `target` if `rs1 >= rs2` (signed).
    Bge { rs1: Reg, rs2: Reg, target: u32 },
    /// Unconditional jump to `target`.
    Jmp { target: u32 },

    // --- Procedures (context-allocating) ---------------------------------
    /// Call the procedure at `target`.
    ///
    /// Allocates a fresh Context ID for the callee, saves the return PC and
    /// the caller's CID, and makes the callee's context current. On a
    /// segmented register file this is the point where a frame may have to
    /// be spilled; on the NSF nothing is saved or restored.
    Call { target: u32 },
    /// Return from the current procedure: deallocates the current context
    /// (all of its registers are dead) and resumes the caller.
    Ret,

    // --- Threads and synchronisation --------------------------------------
    /// Spawn a new thread at `target`; the child's `g1` receives `arg` and
    /// the runtime assigns it a fresh stack and Context ID.
    Spawn { target: u32, arg: Reg },
    /// Terminate the current thread, deallocating its context.
    Halt,
    /// Voluntarily yield the processor to another ready thread.
    Yield,
    /// Create a new message channel; its id is written to `rd`.
    ChNew { rd: Reg },
    /// Send the value in `src` on channel `chan` (non-blocking; the message
    /// becomes visible to the receiver after the network latency).
    ChSend { chan: Reg, src: Reg },
    /// Receive a value from channel `chan` into `rd`; blocks (switching
    /// contexts) until a message is available.
    ChRecv { rd: Reg, chan: Reg },
    /// Atomic fetch-and-add: `rd = mem[base]; mem[base] += imm`.
    AmoAdd { rd: Reg, base: Reg, imm: i32 },
    /// Block the thread until `mem[base + imm] == 0` (a TAM-style join
    /// counter reaching zero); blocking triggers a context switch.
    SyncWait { base: Reg, imm: i32 },

    // --- Register-file hints ----------------------------------------------
    /// Deallocate a single register of the current context (paper §4.2:
    /// "The NSF can explicitly deallocate a single register after it is no
    /// longer needed"). A no-op on non-associative register files.
    RFree { reg: Reg },

    /// No operation.
    Nop,
}

/// Broad instruction classes used for cycle accounting and statistics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstClass {
    /// Register-to-register or register-immediate arithmetic.
    Alu,
    /// Local memory access.
    Mem,
    /// Remote (inter-node) memory access.
    RemoteMem,
    /// Branch or jump.
    Control,
    /// Procedure call/return (context allocating).
    Proc,
    /// Thread management, messaging, synchronisation.
    Thread,
    /// Register-file hint or no-op.
    Misc,
}

impl Inst {
    /// The registers this instruction reads, in operand order; unused
    /// slots are `None` and follow the used ones.
    pub fn reads(&self) -> [Option<Reg>; 2] {
        use Inst::*;
        match *self {
            Add { rs1, rs2, .. }
            | Sub { rs1, rs2, .. }
            | Mul { rs1, rs2, .. }
            | Div { rs1, rs2, .. }
            | Rem { rs1, rs2, .. }
            | And { rs1, rs2, .. }
            | Or { rs1, rs2, .. }
            | Xor { rs1, rs2, .. }
            | Sll { rs1, rs2, .. }
            | Srl { rs1, rs2, .. }
            | Sra { rs1, rs2, .. }
            | Slt { rs1, rs2, .. }
            | Sltu { rs1, rs2, .. }
            | Seq { rs1, rs2, .. }
            | Beq { rs1, rs2, .. }
            | Bne { rs1, rs2, .. }
            | Blt { rs1, rs2, .. }
            | Bge { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Sw { base, src, .. } | SwRemote { base, src, .. } => [Some(base), Some(src)],
            ChSend { chan, src } => [Some(chan), Some(src)],
            Addi { rs1, .. }
            | Andi { rs1, .. }
            | Ori { rs1, .. }
            | Xori { rs1, .. }
            | Slli { rs1, .. }
            | Srli { rs1, .. }
            | Srai { rs1, .. }
            | Slti { rs1, .. }
            | Mv { rs1, .. } => [Some(rs1), None],
            Lw { base, .. }
            | LwRemote { base, .. }
            | AmoAdd { base, .. }
            | SyncWait { base, .. } => [Some(base), None],
            Spawn { arg, .. } => [Some(arg), None],
            ChRecv { chan, .. } => [Some(chan), None],
            Li { .. }
            | ChNew { .. }
            | RFree { .. }
            | Jmp { .. }
            | Call { .. }
            | Ret
            | Halt
            | Yield
            | Nop => [None, None],
        }
    }

    /// The register this instruction writes, if any.
    pub fn writes(&self) -> Option<Reg> {
        use Inst::*;
        match *self {
            Add { rd, .. }
            | Sub { rd, .. }
            | Mul { rd, .. }
            | Div { rd, .. }
            | Rem { rd, .. }
            | And { rd, .. }
            | Or { rd, .. }
            | Xor { rd, .. }
            | Sll { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Slt { rd, .. }
            | Sltu { rd, .. }
            | Seq { rd, .. }
            | Addi { rd, .. }
            | Andi { rd, .. }
            | Ori { rd, .. }
            | Xori { rd, .. }
            | Slli { rd, .. }
            | Srli { rd, .. }
            | Srai { rd, .. }
            | Slti { rd, .. }
            | Li { rd, .. }
            | Mv { rd, .. }
            | Lw { rd, .. }
            | LwRemote { rd, .. }
            | ChNew { rd }
            | ChRecv { rd, .. }
            | AmoAdd { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// The broad class of the instruction, for cycle accounting.
    pub fn class(&self) -> InstClass {
        use Inst::*;
        match self {
            Lw { .. } | Sw { .. } | AmoAdd { .. } => InstClass::Mem,
            LwRemote { .. } | SwRemote { .. } => InstClass::RemoteMem,
            Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } | Jmp { .. } => InstClass::Control,
            Call { .. } | Ret => InstClass::Proc,
            Spawn { .. }
            | Halt
            | Yield
            | ChNew { .. }
            | ChSend { .. }
            | ChRecv { .. }
            | SyncWait { .. } => InstClass::Thread,
            RFree { .. } | Nop => InstClass::Misc,
            _ => InstClass::Alu,
        }
    }

    /// `true` if executing this instruction can block the issuing thread
    /// (and hence trigger a context switch on a multithreaded processor).
    /// `chsend` blocks only on bounded channels.
    pub fn may_block(&self) -> bool {
        matches!(
            self,
            Inst::LwRemote { .. }
                | Inst::ChRecv { .. }
                | Inst::ChSend { .. }
                | Inst::SyncWait { .. }
                | Inst::Yield
        )
    }

    /// The static branch/jump/call target, if this instruction has one.
    pub fn target(&self) -> Option<u32> {
        use Inst::*;
        match *self {
            Beq { target, .. }
            | Bne { target, .. }
            | Blt { target, .. }
            | Bge { target, .. }
            | Jmp { target }
            | Call { target }
            | Spawn { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Rewrites the static target (used by the assembler's fix-up pass).
    ///
    /// Returns `false` if the instruction has no target.
    pub fn set_target(&mut self, new: u32) -> bool {
        use Inst::*;
        match self {
            Beq { target, .. }
            | Bne { target, .. }
            | Blt { target, .. }
            | Bge { target, .. }
            | Jmp { target }
            | Call { target }
            | Spawn { target, .. } => {
                *target = new;
                true
            }
            _ => false,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Inst::*;
        match *self {
            Add { rd, rs1, rs2 } => write!(f, "add {rd}, {rs1}, {rs2}"),
            Sub { rd, rs1, rs2 } => write!(f, "sub {rd}, {rs1}, {rs2}"),
            Mul { rd, rs1, rs2 } => write!(f, "mul {rd}, {rs1}, {rs2}"),
            Div { rd, rs1, rs2 } => write!(f, "div {rd}, {rs1}, {rs2}"),
            Rem { rd, rs1, rs2 } => write!(f, "rem {rd}, {rs1}, {rs2}"),
            And { rd, rs1, rs2 } => write!(f, "and {rd}, {rs1}, {rs2}"),
            Or { rd, rs1, rs2 } => write!(f, "or {rd}, {rs1}, {rs2}"),
            Xor { rd, rs1, rs2 } => write!(f, "xor {rd}, {rs1}, {rs2}"),
            Sll { rd, rs1, rs2 } => write!(f, "sll {rd}, {rs1}, {rs2}"),
            Srl { rd, rs1, rs2 } => write!(f, "srl {rd}, {rs1}, {rs2}"),
            Sra { rd, rs1, rs2 } => write!(f, "sra {rd}, {rs1}, {rs2}"),
            Slt { rd, rs1, rs2 } => write!(f, "slt {rd}, {rs1}, {rs2}"),
            Sltu { rd, rs1, rs2 } => write!(f, "sltu {rd}, {rs1}, {rs2}"),
            Seq { rd, rs1, rs2 } => write!(f, "seq {rd}, {rs1}, {rs2}"),
            Addi { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Andi { rd, rs1, imm } => write!(f, "andi {rd}, {rs1}, {imm}"),
            Ori { rd, rs1, imm } => write!(f, "ori {rd}, {rs1}, {imm}"),
            Xori { rd, rs1, imm } => write!(f, "xori {rd}, {rs1}, {imm}"),
            Slli { rd, rs1, imm } => write!(f, "slli {rd}, {rs1}, {imm}"),
            Srli { rd, rs1, imm } => write!(f, "srli {rd}, {rs1}, {imm}"),
            Srai { rd, rs1, imm } => write!(f, "srai {rd}, {rs1}, {imm}"),
            Slti { rd, rs1, imm } => write!(f, "slti {rd}, {rs1}, {imm}"),
            Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Mv { rd, rs1 } => write!(f, "mv {rd}, {rs1}"),
            Lw { rd, base, imm } => write!(f, "lw {rd}, {imm}({base})"),
            Sw { base, src, imm } => write!(f, "sw {src}, {imm}({base})"),
            LwRemote { rd, base, imm } => write!(f, "lwr {rd}, {imm}({base})"),
            SwRemote { base, src, imm } => write!(f, "swr {src}, {imm}({base})"),
            Beq { rs1, rs2, target } => write!(f, "beq {rs1}, {rs2}, {target}"),
            Bne { rs1, rs2, target } => write!(f, "bne {rs1}, {rs2}, {target}"),
            Blt { rs1, rs2, target } => write!(f, "blt {rs1}, {rs2}, {target}"),
            Bge { rs1, rs2, target } => write!(f, "bge {rs1}, {rs2}, {target}"),
            Jmp { target } => write!(f, "jmp {target}"),
            Call { target } => write!(f, "call {target}"),
            Ret => write!(f, "ret"),
            Spawn { target, arg } => write!(f, "spawn {target}, {arg}"),
            Halt => write!(f, "halt"),
            Yield => write!(f, "yield"),
            ChNew { rd } => write!(f, "chnew {rd}"),
            ChSend { chan, src } => write!(f, "chsend {chan}, {src}"),
            ChRecv { rd, chan } => write!(f, "chrecv {rd}, {chan}"),
            AmoAdd { rd, base, imm } => write!(f, "amoadd {rd}, {imm}({base})"),
            SyncWait { base, imm } => write!(f, "syncwait {imm}({base})"),
            RFree { reg } => write!(f, "rfree {reg}"),
            Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn reads_writes_ports() {
        // The types cap an instruction at 2 reads + 1 write (a
        // 3-ported file); reads come in operand order.
        let samples = [
            Inst::Add {
                rd: Reg::R(1),
                rs1: Reg::R(2),
                rs2: Reg::R(3),
            },
            Inst::Sw {
                base: Reg::G(0),
                src: Reg::R(4),
                imm: 8,
            },
            Inst::ChSend {
                chan: Reg::R(0),
                src: Reg::R(1),
            },
            Inst::Beq {
                rs1: Reg::R(0),
                rs2: Reg::R(1),
                target: 7,
            },
        ];
        let reads = samples.map(|i| i.reads());
        assert_eq!(reads[0], [Some(Reg::R(2)), Some(Reg::R(3))]);
        assert_eq!(reads[1], [Some(Reg::G(0)), Some(Reg::R(4))]);
        assert_eq!(reads[2], [Some(Reg::R(0)), Some(Reg::R(1))]);
        assert_eq!(reads[3], [Some(Reg::R(0)), Some(Reg::R(1))]);
        assert_eq!(samples[0].writes(), Some(Reg::R(1)));
        assert_eq!(samples[1].writes(), None);
    }

    #[test]
    fn blocking_classification() {
        assert!(Inst::LwRemote {
            rd: Reg::R(0),
            base: Reg::R(1),
            imm: 0
        }
        .may_block());
        assert!(Inst::Yield.may_block());
        assert!(!Inst::Lw {
            rd: Reg::R(0),
            base: Reg::R(1),
            imm: 0
        }
        .may_block());
        assert!(Inst::ChSend {
            chan: Reg::R(0),
            src: Reg::R(1)
        }
        .may_block());
    }

    #[test]
    fn target_rewrite() {
        let mut i = Inst::Jmp { target: 3 };
        assert_eq!(i.target(), Some(3));
        assert!(i.set_target(9));
        assert_eq!(i.target(), Some(9));
        let mut n = Inst::Nop;
        assert!(!n.set_target(1));
    }

    #[test]
    fn classes() {
        assert_eq!(Inst::Ret.class(), InstClass::Proc);
        assert_eq!(Inst::Halt.class(), InstClass::Thread);
        assert_eq!(Inst::Nop.class(), InstClass::Misc);
        assert_eq!(
            Inst::LwRemote {
                rd: Reg::R(0),
                base: Reg::R(0),
                imm: 0
            }
            .class(),
            InstClass::RemoteMem
        );
    }
}
