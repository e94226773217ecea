//! End-to-end check of the `--strict` contract through the real
//! binary: a stale `// teleios-lint: allow(...)` marker is a warning
//! (exit 0) by default and an error (exit 1) under `--strict`, and
//! the warning survives into both human and JSON output.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Lay out a minimal workspace whose single member carries one stale
/// allow marker and no actual violations.
fn mini_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "teleios-lint-strict-{}-{tag}",
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
        "#![forbid(unsafe_code)]\n\
         #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n\
         //! Demo crate for the strict-allow integration test.\n\n\
         /// Nothing below panics, so this marker is stale.\n\
         pub fn quiet() -> u32 {\n\
             // teleios-lint: allow(no-panic) — stale on purpose\n\
             41 + 1\n\
         }\n",
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

#[test]
fn stale_allow_is_a_warning_without_strict_and_an_error_with() {
    let root = mini_workspace("basic");

    let lenient = run(&root, &[]);
    assert!(
        lenient.status.success(),
        "stale allow alone must pass the default gate: {}",
        String::from_utf8_lossy(&lenient.stderr)
    );
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert!(
        stderr.contains("unused-allow"),
        "warning should still be printed: {stderr}"
    );

    let strict = run(&root, &["--strict"]);
    assert!(
        !strict.status.success(),
        "--strict must turn the stale allow into a failure"
    );
    assert_eq!(strict.status.code(), Some(1), "lint failures exit 1");
    assert!(
        String::from_utf8_lossy(&strict.stderr).contains("unused-allow"),
        "strict failure names the rule"
    );

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn strict_json_output_carries_the_unused_allow_finding() {
    let root = mini_workspace("json");

    let out = run(&root, &["--strict", "--format", "json"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"rule\":\"unused-allow\""),
        "json output should carry the finding: {stdout}"
    );
    assert!(
        stdout.contains("\"severity\":\"warning\""),
        "severity stays a warning even when strict fails the run: {stdout}"
    );

    fs::remove_dir_all(&root).unwrap();
}

/// A marker is read out of the line's `//` comment, whatever quotes
/// sit in the code before it: a `'"'` char literal on the same line
/// must neither hide the marker (leaving the finding live) nor keep a
/// dead marker from being reported.
#[test]
fn marker_after_a_quote_char_literal_is_honoured() {
    let root = mini_workspace("quote");
    let lib = root.join("crates").join("demo").join("src").join("lib.rs");
    let live = "#![forbid(unsafe_code)]\n\
         #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n\
         pub fn quoted() -> u32 {\n\
             let q = '\"'; let v = Some(41u32).unwrap(); // teleios-lint: allow(no-panic)\n\
             v + u32::from(q == '\"')\n\
         }\n";
    fs::write(&lib, live).unwrap();
    let strict = run(&root, &["--strict"]);
    assert!(
        strict.status.success(),
        "the marker suppresses the unwrap on its line: {}",
        String::from_utf8_lossy(&strict.stderr)
    );

    // Same line without the unwrap: now the marker is the stale one.
    fs::write(&lib, live.replace("Some(41u32).unwrap()", "41u32")).unwrap();
    let strict = run(&root, &["--strict"]);
    assert_eq!(strict.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&strict.stderr).contains("unused-allow"),
        "a dead marker after a quote literal is still reported"
    );

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn removing_the_stale_marker_passes_strict() {
    let root = mini_workspace("clean");
    let lib = root.join("crates").join("demo").join("src").join("lib.rs");
    let cleaned = fs::read_to_string(&lib)
        .unwrap()
        .lines()
        .filter(|l| !l.contains("allow(no-panic)"))
        .collect::<Vec<_>>()
        .join("\n");
    fs::write(&lib, cleaned + "\n").unwrap();

    let strict = run(&root, &["--strict"]);
    assert!(
        strict.status.success(),
        "clean workspace must pass --strict: {}",
        String::from_utf8_lossy(&strict.stderr)
    );

    fs::remove_dir_all(&root).unwrap();
}
