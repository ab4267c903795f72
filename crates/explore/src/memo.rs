//! Persistent result memoization for the explorer: one checksummed
//! record per *evaluated* point, keyed by content rather than by
//! position, so a later run — any shard, any spec that happens to
//! enumerate the same point — skips the simulation entirely.
//!
//! The key is [`memo_key`]\(frontend fingerprint, engine spec, VLSI
//! model version\): the frontend fingerprint
//! ([`nsf_trace::stream_fingerprint`]) covers the workload content and
//! every frontend-visible configuration field, the engine string is the
//! canonical spec-grammar name of the register file, and
//! [`nsf_vlsi::MODEL_VERSION`] invalidates every memoized cost when the
//! calibrated silicon models are retuned. Two points with equal keys
//! are the same simulation by construction, so their
//! instructions/cycles/[`PointCost`] are interchangeable.
//!
//! Layout (a checksummed record log of [`nsf_trace::frame`], with the
//! ledger's record layout — [`crate::ledger`]):
//!
//! ```text
//! header := magic "NSFM" | version u8 | fnv64(preceding bytes)
//! record := tag 0x01 | key | instructions | cycles
//!           | reloads/instr bits | utilization bits | area bits
//!           | access bits | fnv64(preceding record bytes)
//! ```
//!
//! Integer fields are varints; `f64` fields are varints of their
//! IEEE-754 bit patterns, so a ledger record synthesized from a memo
//! hit is **byte-identical** to the one the live evaluation would have
//! appended — the property that lets a store-warm explorer run produce
//! the same ledger and front files as a cold one. The memo file is
//! advisory: a torn tail is truncated at the last intact record, and a
//! damaged header (a typed [`FrameError`]) discards the file (the
//! explorer just re-simulates).

use crate::ledger::{decode_point, encode_point};
use crate::pareto::PointCost;
use nsf_trace::frame::{checked_record, parse_log, Fnv64, FrameError, RecordLog, VarWriter};

/// Leading magic of a memo file.
pub const MEMO_MAGIC: [u8; 4] = *b"NSFM";
/// Current memo format version.
pub const MEMO_VERSION: u8 = 1;

/// One memoized evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoRecord {
    /// [`memo_key`] of the point.
    pub key: u64,
    /// Instructions the run retired.
    pub instructions: u64,
    /// Cycles the run took.
    pub cycles: u64,
    /// The four Pareto axes.
    pub cost: PointCost,
}

/// The content key of one evaluated point: frontend stream fingerprint
/// × engine spec string × VLSI model version. Everything that can
/// change the record's value is folded in; nothing positional (point
/// index, shard, spec ordering) is.
pub fn memo_key(frontend_fp: u64, engine: &str, model_version: u32) -> u64 {
    let mut h = Fnv64::new();
    h.word(frontend_fp);
    h.update(&model_version.to_le_bytes());
    h.update(engine.as_bytes());
    h.finish()
}

/// Encodes the header block.
pub fn encode_memo_header() -> Vec<u8> {
    checked_record(VarWriter::with_header(MEMO_MAGIC, MEMO_VERSION))
}

/// Encodes one record.
pub fn encode_memo_record(r: &MemoRecord) -> Vec<u8> {
    encode_point(r.key, r.instructions, r.cycles, &r.cost)
}

/// A parsed memo file: the valid prefix. Later duplicates of a key
/// supersede earlier ones when folded into a map; bytes past
/// [`RecordLog::valid_len`] are a torn tail from an interrupted append
/// and must be truncated before appending resumes.
pub type ParsedMemo = RecordLog<(), MemoRecord>;

/// Parses a memo image. The header must be intact — otherwise the
/// typed [`FrameError`] tells the caller to discard the file, which is
/// never fatal to a run; a damaged or half-written record tail stops
/// the parse at the last clean boundary.
pub fn parse_memo(bytes: &[u8]) -> Result<ParsedMemo, FrameError> {
    parse_log(
        bytes,
        MEMO_MAGIC,
        MEMO_VERSION,
        |_| Ok(()),
        |r| {
            let (key, instructions, cycles, cost) = decode_point(r)?;
            Ok(MemoRecord {
                key,
                instructions,
                cycles,
                cost,
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u64) -> MemoRecord {
        MemoRecord {
            key: memo_key(0x1234_5678_9abc_def0 ^ i, "nsf:80x1", 1),
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
        let mut bytes = encode_memo_header();
        for i in 0..records {
            bytes.extend(encode_memo_record(&record(i)));
        }
        bytes
    }

    #[test]
    fn roundtrip_is_exact() {
        let bytes = image(5);
        let parsed = parse_memo(&bytes).unwrap();
        assert_eq!(parsed.records, (0..5).map(record).collect::<Vec<_>>());
        assert_eq!(parsed.valid_len, bytes.len());
    }

    #[test]
    fn torn_tail_rolls_back_to_a_record_boundary() {
        let full = image(3);
        let two = image(2);
        for cut in two.len() + 1..full.len() {
            let parsed = parse_memo(&full[..cut]).unwrap();
            assert_eq!(parsed.records.len(), 2, "cut at {cut}");
            assert_eq!(parsed.valid_len, two.len());
        }
    }

    #[test]
    fn bitflip_in_a_record_stops_the_parse_there() {
        let mut bytes = image(3);
        let one = image(1).len();
        bytes[one + 2] ^= 0x40;
        let parsed = parse_memo(&bytes).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.valid_len, one);
    }

    #[test]
    fn header_damage_is_typed_and_fatal_to_the_file() {
        let mut bytes = image(1);
        bytes[1] ^= 0xff;
        assert!(parse_memo(&bytes).is_err());
        assert!(parse_memo(&[]).is_err());
        assert!(parse_memo(&image(0)[..3]).is_err());
        // A ledger file is not a memo file.
        let foreign = crate::ledger::encode_header(&crate::ledger::LedgerHeader {
            fingerprint: 1,
            shard_index: 0,
            shard_count: 1,
            shard_points: 0,
        });
        assert!(parse_memo(&foreign).is_err());
    }

    #[test]
    fn key_separates_every_component() {
        let base = memo_key(7, "nsf:80x1", 1);
        assert_ne!(base, memo_key(8, "nsf:80x1", 1), "frontend fingerprint");
        assert_ne!(base, memo_key(7, "nsf:80x2", 1), "engine spec");
        assert_ne!(base, memo_key(7, "nsf:80x1", 2), "model version");
        assert_eq!(base, memo_key(7, "nsf:80x1", 1), "deterministic");
    }
}
