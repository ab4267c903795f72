//! A binary writes where it runs, never into the tree it was built in:
//! a copy of `perf_report`, run with `--out DIR` from a directory of
//! another workspace, writes under `DIR` only.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

/// Every file below `dir`, recursively.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files(&path));
        } else {
            out.push(path);
        }
    }
    out
}

/// The modification time of `path`, or `None` when it does not exist.
fn modified(path: &Path) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

#[test]
fn copied_perf_report_writes_only_under_out() {
    let root = std::env::temp_dir().join(format!("nsf-results-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (bin, ws, tmp, out) = (
        root.join("bin"),
        root.join("ws"),
        root.join("tmp"),
        root.join("out"),
    );
    for dir in [&bin, &ws, &tmp] {
        std::fs::create_dir_all(dir).unwrap();
    }
    // The copy runs inside another workspace, with its own temp dir.
    std::fs::write(ws.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    let exe = bin.join("perf_report");
    std::fs::copy(env!("CARGO_BIN_EXE_perf_report"), &exe).unwrap();
    let built_in = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_regfile.json");
    let before = modified(&built_in);

    let status = Command::new(&exe)
        .args(["--scale", "0", "--threads", "1", "--out"])
        .arg(&out)
        .current_dir(&ws)
        .env("TMPDIR", &tmp)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "perf_report failed: {status}");

    assert!(out.join("BENCH_regfile.json").is_file());
    let written: Vec<PathBuf> = files(&root)
        .into_iter()
        .filter(|p| p != &exe && p != &ws.join("Cargo.toml"))
        .collect();
    assert!(
        written.iter().all(|p| p.starts_with(&out)),
        "files written outside --out: {written:?}"
    );
    assert_eq!(
        modified(&built_in),
        before,
        "the build tree's BENCH_regfile.json changed"
    );
    let _ = std::fs::remove_dir_all(&root);
}
