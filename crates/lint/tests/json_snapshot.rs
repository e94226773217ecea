//! Pins the `--format json` schema byte-for-byte through the real
//! binary: the JSON emitted for a fixed mini workspace is an exact
//! snapshot, so any schema change is a deliberate test edit, not an
//! accident a downstream consumer discovers.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A single-member workspace with two deterministic findings: the
/// missing `forbid(unsafe_code)` (1:1) and an `Ordering::Relaxed`
/// (2:34).
fn mini_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "teleios-lint-snapshot-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates").join("demo").join("src");
    fs::create_dir_all(&src).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/demo\"]\n")
        .unwrap();
    fs::write(
        root.join("crates").join("demo").join("Cargo.toml"),
        "[package]\nname = \"demo\"\nversion = \"0.1.0\"\nedition = \"2021\"\n",
    )
    .unwrap();
    fs::write(
        src.join("lib.rs"),
        "pub fn racy(flag: &std::sync::atomic::AtomicBool) -> bool {\n    flag.load(std::sync::atomic::Ordering::Relaxed)\n}\n",
    )
    .unwrap();
    root
}

fn run(root: &PathBuf, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_teleios-lint"));
    cmd.arg("--root").arg(root);
    for a in extra {
        cmd.arg(a);
    }
    cmd.output().unwrap()
}

/// The pinned schema: an array of objects with exactly these keys in
/// exactly this order, two-space indent, one finding per line.
const SNAPSHOT: &str = r#"[
  {"path":"crates/demo/src/lib.rs","line":1,"col":1,"rule":"crate-attrs","severity":"error","message":"crate root is missing #![forbid(unsafe_code)]"},
  {"path":"crates/demo/src/lib.rs","line":2,"col":34,"rule":"no-relaxed","severity":"error","message":"Ordering::Relaxed outside crates/exec: the loom model assumes SeqCst"}
]
"#;

#[test]
fn json_output_matches_the_pinned_snapshot() {
    let root = mini_workspace("schema");
    let out = run(&root, &["--format", "json"]);
    assert!(!out.status.success(), "the seeded findings are errors");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        SNAPSHOT,
        "json schema drifted — if intentional, update SNAPSHOT"
    );
    fs::remove_dir_all(&root).unwrap();
}
