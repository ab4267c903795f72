//! Program container.

use crate::inst::Inst;
use std::collections::BTreeMap;
use std::fmt;

/// A fully resolved program: a flat instruction vector plus a symbol table.
///
/// Branch, call and spawn targets are absolute indices into `insts`.
#[derive(Clone, Debug, Default)]
pub struct Program {
    insts: Vec<Inst>,
    /// Symbolic names for instruction indices (procedure entry points,
    /// thread entry points). Sorted for deterministic iteration.
    symbols: BTreeMap<String, u32>,
    entry: u32,
}

/// Error produced by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A control-flow target points outside the program.
    TargetOutOfBounds {
        /// Index of the offending instruction.
        at: u32,
        /// The out-of-bounds target.
        target: u32,
    },
    /// The entry point is outside the program.
    EntryOutOfBounds(u32),
    /// An instruction names an architecturally invalid register.
    InvalidRegister {
        /// Index of the offending instruction.
        at: u32,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::TargetOutOfBounds { at, target } => {
                write!(f, "instruction {at}: target {target} out of bounds")
            }
            ProgramError::EntryOutOfBounds(e) => write!(f, "entry point {e} out of bounds"),
            ProgramError::InvalidRegister { at } => {
                write!(f, "instruction {at}: invalid register operand")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Encodes the program into its binary image (one 32-bit word per
    /// instruction).
    pub fn to_words(&self) -> Result<Vec<u32>, crate::encode::EncodeError> {
        self.insts.iter().map(crate::encode::encode).collect()
    }

    /// Reconstructs a program from a binary image produced by
    /// [`Program::to_words`] (symbols are not part of the image; the
    /// entry index must be supplied).
    pub fn from_words(
        words: &[u32],
        entry: u32,
    ) -> Result<Self, Box<dyn std::error::Error + Send + Sync>> {
        let insts = words
            .iter()
            .map(|&w| crate::encode::decode(w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program::new(insts, BTreeMap::new(), entry)?)
    }

    /// Creates a program from raw parts and validates it.
    pub fn new(
        insts: Vec<Inst>,
        symbols: BTreeMap<String, u32>,
        entry: u32,
    ) -> Result<Self, ProgramError> {
        let p = Program {
            insts,
            symbols,
            entry,
        };
        p.validate()?;
        Ok(p)
    }

    /// The instruction at `pc`, or `None` past the end.
    pub fn fetch(&self, pc: u32) -> Option<&Inst> {
        self.insts.get(pc as usize)
    }

    /// All instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The entry-point instruction index.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Looks up a symbol (procedure or thread entry).
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// The full symbol table.
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// Checks structural invariants: all control-flow targets and the entry
    /// point lie within the program, and all register operands are valid.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let n = self.insts.len() as u32;
        if self.entry >= n && n > 0 {
            return Err(ProgramError::EntryOutOfBounds(self.entry));
        }
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(t) = inst.target() {
                if t >= n {
                    return Err(ProgramError::TargetOutOfBounds {
                        at: i as u32,
                        target: t,
                    });
                }
            }
            let regs_ok = inst
                .reads()
                .into_iter()
                .chain([inst.writes()])
                .flatten()
                .all(|r| r.is_valid());
            if !regs_ok {
                return Err(ProgramError::InvalidRegister { at: i as u32 });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut by_index: BTreeMap<u32, &str> = BTreeMap::new();
        for (name, &idx) in &self.symbols {
            by_index.insert(idx, name);
        }
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(name) = by_index.get(&(i as u32)) {
                writeln!(f, "{name}:")?;
            }
            writeln!(f, "    {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn validate_catches_bad_target() {
        let insts = vec![Inst::Jmp { target: 5 }];
        let err = Program::new(insts, BTreeMap::new(), 0).unwrap_err();
        assert_eq!(err, ProgramError::TargetOutOfBounds { at: 0, target: 5 });
    }

    #[test]
    fn validate_catches_bad_entry() {
        let insts = vec![Inst::Nop];
        let err = Program::new(insts, BTreeMap::new(), 9).unwrap_err();
        assert_eq!(err, ProgramError::EntryOutOfBounds(9));
    }

    #[test]
    fn symbols_resolve() {
        let mut syms = BTreeMap::new();
        syms.insert("main".to_owned(), 1);
        let p = Program::new(vec![Inst::Nop, Inst::Halt], syms, 1).unwrap();
        assert_eq!(p.symbol("main"), Some(1));
        assert_eq!(p.symbol("other"), None);
        assert_eq!(p.entry(), 1);
        assert_eq!(p.fetch(1), Some(&Inst::Halt));
        assert_eq!(p.fetch(2), None);
    }

    #[test]
    fn binary_image_roundtrip() {
        let mut syms = BTreeMap::new();
        syms.insert("main".to_owned(), 0);
        let p = Program::new(
            vec![
                Inst::Li {
                    rd: Reg::R(0),
                    imm: 5,
                },
                Inst::Addi {
                    rd: Reg::R(0),
                    rs1: Reg::R(0),
                    imm: -1,
                },
                Inst::Halt,
            ],
            syms,
            0,
        )
        .unwrap();
        let words = p.to_words().unwrap();
        assert_eq!(words.len(), 3);
        let back = Program::from_words(&words, 0).unwrap();
        assert_eq!(p.insts(), back.insts());
    }

    #[test]
    fn display_lists_symbols() {
        let mut syms = BTreeMap::new();
        syms.insert("f".to_owned(), 0);
        let p = Program::new(
            vec![
                Inst::Mv {
                    rd: Reg::R(0),
                    rs1: Reg::G(1),
                },
                Inst::Ret,
            ],
            syms,
            0,
        )
        .unwrap();
        let s = p.to_string();
        assert!(s.contains("f:"));
        assert!(s.contains("mv r0, g1"));
    }
}
