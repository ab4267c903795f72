//! Inspect and garbage-collect the persistent stream store
//! (`results/store/` by default — the content-addressed `.nsfs`
//! entries that `run --store` and `nsf-explore` share across runs).
//!
//! ```sh
//! # Entry count, byte total and integrity census:
//! cargo run --release -p nsf-bench --bin store_tool -- info
//!
//! # Drop invalid entries and shrink below a byte budget:
//! cargo run --release -p nsf-bench --bin store_tool -- \
//!     gc --max-bytes 50000000
//! ```
//!
//! An entry is invalid exactly when `StreamStore::load_stream` would
//! reject it: the census runs the loader's chunked read and decoder
//! (`validate_stream_file`) without keeping the stream.
//!
//! `gc` is deterministic: invalid entries (bad checksum, foreign magic
//! or version, name/fingerprint mismatch, a report or stream length
//! that does not decode, stray temp files) go first,
//! then intact entries are evicted **largest first** (ties broken by
//! filename) until the store fits the budget. Without `--max-bytes` it
//! only removes the invalid entries. The explorer's result memo
//! (`explore_memo.nsfm`) is not a stream entry and is left alone.
//!
//! Exit codes (the tools' shared rule, `nsf_bench::cli`): 0 success, 2
//! runtime error, 64 usage error (`info --max-bytes` included).

use nsf_bench::{CliArgs, CliSpec, Command, Operands, ToolError};
use nsf_trace::{validate_stream_file, StoreError};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: store_tool info [--dir DIR]
       store_tool gc [--dir DIR] [--max-bytes N]";

/// Only `gc` takes `--max-bytes`: `info --max-bytes` is a contradiction,
/// not a no-op.
const COMMANDS: &[Command] = &[
    Command {
        name: "info",
        spec: CliSpec::values(&["dir"]),
        operands: Operands::None,
        run: info,
    },
    Command {
        name: "gc",
        spec: CliSpec::values(&["dir", "max-bytes"]),
        operands: Operands::None,
        run: gc,
    },
];

/// `--dir DIR`, or the workspace store.
fn store_dir(args: &CliArgs) -> PathBuf {
    let default = || nsf_bench::workspace_results_dir().join("store");
    args.flag("dir").map_or_else(default, PathBuf::from)
}

/// One file in the store directory that `store_tool` manages.
struct Entry {
    name: String,
    path: PathBuf,
    bytes: u64,
    /// `None` when intact; `Some(reason)` when the entry must go.
    invalid: Option<String>,
}

/// Scans the store: every `.nsfs` entry (validated against the
/// fingerprint its filename claims) plus leftover `.tmp*` files from
/// interrupted saves. Anything else in the directory is not ours.
/// Entries come back sorted by filename — scan order never leaks into
/// eviction order.
fn scan(dir: &Path) -> std::io::Result<Vec<Entry>> {
    let mut entries = Vec::new();
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(entries),
        Err(e) => return Err(e),
    };
    for item in rd {
        let item = item?;
        let name = item.file_name().to_string_lossy().into_owned();
        let meta = item.metadata()?;
        if !meta.is_file() {
            continue;
        }
        let invalid = if let Some(hex) = name.strip_suffix(".nsfs") {
            match u64::from_str_radix(hex, 16) {
                Err(_) => Some("unparseable fingerprint name".to_string()),
                Ok(fp) => match validate_stream_file(&item.path(), fp) {
                    Ok(()) => None,
                    Err(StoreError::Io(e)) => Some(format!("unreadable: {e}")),
                    Err(e) => Some(e.to_string()),
                },
            }
        } else if name.contains(".tmp") {
            Some("interrupted save".to_string())
        } else {
            continue; // not a stream entry (e.g. the explorer memo)
        };
        entries.push(Entry {
            name,
            path: item.path(),
            bytes: meta.len(),
            invalid,
        });
    }
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(entries)
}

fn total(entries: &[Entry]) -> u64 {
    entries.iter().map(|e| e.bytes).sum()
}

fn info(args: &CliArgs) -> Result<(), ToolError> {
    let dir = &store_dir(args);
    let entries = scan(dir).map_err(|e| e.to_string())?;
    let invalid: Vec<&Entry> = entries.iter().filter(|e| e.invalid.is_some()).collect();
    for e in &entries {
        match &e.invalid {
            None => println!("  {}  {:>10} bytes  ok", e.name, e.bytes),
            Some(why) => println!("  {}  {:>10} bytes  INVALID ({why})", e.name, e.bytes),
        }
    }
    println!(
        "store-info dir={} entries={} bytes={} invalid={}",
        dir.display(),
        entries.len(),
        total(&entries),
        invalid.len(),
    );
    Ok(())
}

fn gc(args: &CliArgs) -> Result<(), ToolError> {
    let dir = &store_dir(args);
    let budget = args.parsed_or("max-bytes", u64::MAX)?;
    let entries = scan(dir).map_err(|e| e.to_string())?;
    let mut removed_invalid = 0u64;
    let mut keep: Vec<Entry> = Vec::new();
    for e in entries {
        match &e.invalid {
            Some(why) => {
                std::fs::remove_file(&e.path).map_err(|err| format!("{}: {err}", e.name))?;
                println!("  removed {} ({why})", e.name);
                removed_invalid += 1;
            }
            None => keep.push(e),
        }
    }
    // Largest first; the filename (the fingerprint) breaks size ties so
    // the eviction order is a pure function of the store's contents.
    keep.sort_by(|a, b| b.bytes.cmp(&a.bytes).then_with(|| a.name.cmp(&b.name)));
    let mut evicted = 0u64;
    while total(&keep) > budget {
        let e = keep.remove(0);
        std::fs::remove_file(&e.path).map_err(|err| format!("{}: {err}", e.name))?;
        println!("  evicted {} ({} bytes)", e.name, e.bytes);
        evicted += 1;
    }
    println!(
        "store-gc dir={} removed_invalid={} evicted={} entries={} bytes={}",
        dir.display(),
        removed_invalid,
        evicted,
        keep.len(),
        total(&keep),
    );
    Ok(())
}

fn main() -> ExitCode {
    nsf_bench::tool_main("store_tool", USAGE, COMMANDS)
}
