//! The append-only results ledger: every evaluated point becomes one
//! checksummed record — a checksummed record log of
//! [`nsf_trace::frame`], which owns the varints, the FNV-1a-64
//! checksums, the header check and the torn-tail rule.
//!
//! Layout:
//!
//! ```text
//! header  := magic "NSFX" | version u8 | fingerprint | shard_index
//!            | shard_count | shard_points | fnv64(preceding bytes)
//! record  := tag 0x01 | point_idx | instructions | cycles
//!            | reloads/instr bits | utilization bits | area bits
//!            | access bits | fnv64(preceding record bytes)
//! ```
//!
//! All integer fields are varints; `f64` fields are varints of their
//! IEEE-754 bit patterns, so a replayed value is *bit-identical* to the
//! appended one — the property the resume test's byte-equality rides
//! on. The memo ([`crate::memo`]) shares the record layout
//! (`encode_point` / `decode_point`). Records are appended strictly
//! in shard point order, which makes the valid prefix of a ledger
//! self-describing: parsing stops at the first corrupt or truncated
//! record (a crash mid-append) and reports the clean byte length, and
//! the explorer resumes from there. A bad *header* is not recoverable
//! and is a hard error ([`LedgerError::Frame`]), as is a header whose
//! fingerprint or shard coordinates disagree with the run being
//! resumed.

use crate::pareto::PointCost;
use nsf_trace::frame::{checked_record, parse_log, FrameError, RecordLog, VarReader, VarWriter};
use std::fmt;

/// Leading magic of a ledger file.
pub const MAGIC: [u8; 4] = *b"NSFX";
/// Current format version.
pub const VERSION: u8 = 1;
/// Tag of an evaluated-point record (ledger and memo alike).
const RECORD_TAG: u8 = 0x01;

/// The identity block at the head of a ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerHeader {
    /// [`crate::ExploreSpec::fingerprint`] of the spec being explored.
    pub fingerprint: u64,
    /// Which shard this ledger holds.
    pub shard_index: u32,
    /// Out of how many shards.
    pub shard_count: u32,
    /// Points assigned to this shard (records at completion).
    pub shard_points: u64,
}

/// One evaluated point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LedgerRecord {
    /// Index in the canonical full enumeration.
    pub point_idx: u64,
    /// Instructions the run retired.
    pub instructions: u64,
    /// Cycles the run took.
    pub cycles: u64,
    /// The four Pareto axes.
    pub cost: PointCost,
}

/// Why a ledger could not be used.
#[derive(Debug)]
pub enum LedgerError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The header block is damaged or foreign — nothing can be salvaged.
    Frame(FrameError),
    /// The header identifies a different run than the one resuming.
    Mismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// What the resuming run expected.
        expected: u64,
        /// What the ledger holds.
        found: u64,
    },
    /// A record does not name the shard's next point — out of range,
    /// from another shard, repeated or out of order: the ledger belongs
    /// to a different enumeration.
    OutOfSequence {
        /// Record position in the ledger.
        record: u64,
        /// The point index expected there.
        expected: u64,
        /// The point index found.
        found: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Io(e) => write!(f, "ledger i/o: {e}"),
            LedgerError::Frame(e) => write!(f, "corrupt ledger: {e}"),
            LedgerError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "ledger {field} mismatch: expected {expected:#x}, found {found:#x}"
            ),
            LedgerError::OutOfSequence {
                record,
                expected,
                found,
            } => write!(
                f,
                "ledger record {record} out of sequence: expected point {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<std::io::Error> for LedgerError {
    fn from(e: std::io::Error) -> Self {
        LedgerError::Io(e)
    }
}

impl From<FrameError> for LedgerError {
    fn from(e: FrameError) -> Self {
        LedgerError::Frame(e)
    }
}

/// Encodes the record layout the ledger and the memo share: tag, the
/// record's identity (point index or memo key), instructions, cycles,
/// and the four cost axes as IEEE-754 bit patterns, then the checksum.
pub(crate) fn encode_point(id: u64, instructions: u64, cycles: u64, cost: &PointCost) -> Vec<u8> {
    let mut w = VarWriter::new();
    w.put_u8(RECORD_TAG);
    for v in [
        id,
        instructions,
        cycles,
        cost.reloads_per_instr.to_bits(),
        cost.utilization.to_bits(),
        cost.area_um2.to_bits(),
        cost.access_ns.to_bits(),
    ] {
        w.put_varint(v);
    }
    checked_record(w)
}

/// Decodes [`encode_point`]'s fields (the record log checks the
/// checksum): `(id, instructions, cycles, cost)`.
pub(crate) fn decode_point(
    r: &mut VarReader<'_>,
) -> Result<(u64, u64, u64, PointCost), FrameError> {
    if r.get_u8()? != RECORD_TAG {
        return Err(FrameError::BadVarint);
    }
    let mut f = [0u64; 7];
    for v in &mut f {
        *v = r.get_varint()?;
    }
    let cost = PointCost {
        reloads_per_instr: f64::from_bits(f[3]),
        utilization: f64::from_bits(f[4]),
        area_um2: f64::from_bits(f[5]),
        access_ns: f64::from_bits(f[6]),
    };
    Ok((f[0], f[1], f[2], cost))
}

/// Encodes the header block.
pub fn encode_header(h: &LedgerHeader) -> Vec<u8> {
    let mut w = VarWriter::with_header(MAGIC, VERSION);
    for v in [
        h.fingerprint,
        u64::from(h.shard_index),
        u64::from(h.shard_count),
        h.shard_points,
    ] {
        w.put_varint(v);
    }
    checked_record(w)
}

/// Encodes one record.
pub fn encode_record(r: &LedgerRecord) -> Vec<u8> {
    encode_point(r.point_idx, r.instructions, r.cycles, &r.cost)
}

/// A parsed ledger: the header and the valid prefix of its records.
/// Bytes past [`RecordLog::valid_len`] are a partial or corrupt tail
/// from an interrupted append and must be truncated before appending
/// resumes.
pub type ParsedLedger = RecordLog<LedgerHeader, LedgerRecord>;

/// Parses a ledger image. The header must be intact; a damaged or
/// half-written record tail is not an error — parsing stops and
/// [`RecordLog::valid_len`] marks the clean prefix.
pub fn parse(bytes: &[u8]) -> Result<ParsedLedger, LedgerError> {
    let header = |r: &mut VarReader<'_>| {
        Ok(LedgerHeader {
            fingerprint: r.get_varint()?,
            shard_index: r.get_int()?,
            shard_count: r.get_int()?,
            shard_points: r.get_varint()?,
        })
    };
    let record = |r: &mut VarReader<'_>| {
        let (point_idx, instructions, cycles, cost) = decode_point(r)?;
        Ok(LedgerRecord {
            point_idx,
            instructions,
            cycles,
            cost,
        })
    };
    Ok(parse_log(bytes, MAGIC, VERSION, header, record)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> LedgerHeader {
        LedgerHeader {
            fingerprint: 0xdead_beef_cafe_f00d,
            shard_index: 1,
            shard_count: 4,
            shard_points: 7,
        }
    }

    fn record(i: u64) -> LedgerRecord {
        LedgerRecord {
            point_idx: i,
            instructions: 1000 + i,
            cycles: 2000 + i,
            cost: PointCost {
                reloads_per_instr: 0.125 * i as f64,
                utilization: 0.5,
                area_um2: 1.5e6 + i as f64,
                access_ns: 12.25,
            },
        }
    }

    fn image(records: u64) -> Vec<u8> {
        let mut bytes = encode_header(&header());
        for i in 0..records {
            bytes.extend(encode_record(&record(i)));
        }
        bytes
    }

    #[test]
    fn roundtrip_is_exact() {
        let bytes = image(7);
        let parsed = parse(&bytes).unwrap();
        assert_eq!(parsed.header, header());
        assert_eq!(parsed.records, (0..7).map(record).collect::<Vec<_>>());
        assert_eq!(parsed.valid_len, bytes.len());
        assert!(!parsed.truncated_tail(bytes.len()));
    }

    #[test]
    fn truncated_tail_rolls_back_to_a_record_boundary() {
        let full = image(3);
        let two = image(2);
        // Chop the third record anywhere: the first two must survive.
        for cut in two.len() + 1..full.len() {
            let parsed = parse(&full[..cut]).unwrap();
            assert_eq!(parsed.records.len(), 2, "cut at {cut}");
            assert_eq!(parsed.valid_len, two.len());
            assert!(parsed.truncated_tail(cut));
        }
    }

    #[test]
    fn bitflip_in_a_record_stops_the_parse_there() {
        let mut bytes = image(3);
        let one = image(1).len();
        bytes[one + 2] ^= 0x40;
        let parsed = parse(&bytes).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.valid_len, one);
    }

    #[test]
    fn header_damage_is_fatal() {
        let mut bytes = image(1);
        bytes[1] ^= 0xff;
        assert!(matches!(parse(&bytes), Err(LedgerError::Frame(_))));
        assert!(matches!(parse(&[]), Err(LedgerError::Frame(_))));
        let short = &image(0)[..4];
        assert!(matches!(parse(short), Err(LedgerError::Frame(_))));
    }

    #[test]
    fn float_bits_survive_exactly() {
        let mut odd = record(0);
        odd.cost.utilization = f64::from_bits(0x7ff8_0000_0000_0001); // a NaN payload
        odd.cost.reloads_per_instr = -0.0;
        let mut bytes = encode_header(&header());
        bytes.extend(encode_record(&odd));
        let parsed = parse(&bytes).unwrap();
        assert_eq!(
            parsed.records[0].cost.utilization.to_bits(),
            odd.cost.utilization.to_bits()
        );
        assert_eq!(
            parsed.records[0].cost.reloads_per_instr.to_bits(),
            (-0.0f64).to_bits()
        );
    }
}
