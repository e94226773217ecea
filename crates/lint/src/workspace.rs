//! Workspace walking and the two-phase scan driver: enumerate member
//! crates, derive each file's [`FilePolicy`] from where it lives,
//! summarize every file in walk order, and link the summaries so the
//! interprocedural rules (lock-order, cancel-safety, the
//! path-sensitive flow rules, swallowed-result) see the whole
//! workspace at once. The scan is serial: a cold pass over the whole
//! workspace costs about 1 % of the check.sh budget (EXPERIMENTS.md,
//! "E13b (retired)").

use crate::rules::{FilePolicy, Finding, SourceFile};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Crates allowed to own OS threads and relaxed atomics: the
/// concurrency substrate itself and the model checker that spawns
/// real threads to control modeled ones.
const SUBSTRATE_CRATES: &[&str] = &["exec", "loom"];

/// The one crate allowed to mutate the filesystem directly: the
/// storage engine whose `Medium` is everyone else's doorway to disk.
const FS_DOORWAY_CRATES: &[&str] = &["store"];

/// Walk upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Depth-first walk in sorted order, so the scan (and therefore
/// finding order and file counts) is identical across filesystems.
/// Symlinks are skipped — a linked directory could escape the
/// workspace or loop the walk — and so is any directory named
/// `target`: build output is never source, and a stray
/// `CARGO_TARGET_DIR` inside a member must not slow the scan.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<Vec<_>>>()?;
    entries.sort();
    for path in entries {
        if fs::symlink_metadata(&path)?.file_type().is_symlink() {
            continue;
        }
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn policy_for(crate_name: &str, label: &str) -> FilePolicy {
    FilePolicy {
        substrate: SUBSTRATE_CRATES.contains(&crate_name),
        fs_doorway: FS_DOORWAY_CRATES.contains(&crate_name),
        bin_target: label.contains("/src/bin/")
            || label.starts_with("src/bin/")
            || label.ends_with("src/main.rs")
            || label.contains("/benches/")
            || label.starts_with("benches/")
            || label.contains("/examples/")
            || label.starts_with("examples/"),
    }
}

/// A workspace member: its short name and directory.
struct Member {
    name: String,
    dir: PathBuf,
}

fn members(root: &Path) -> io::Result<Vec<Member>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            out.push(Member { name, dir });
        }
    }
    // The root package (facade crate), if the workspace manifest also
    // declares one.
    if root.join("src").join("lib.rs").is_file() {
        out.push(Member {
            name: "root".to_string(),
            dir: root.to_path_buf(),
        });
    }
    Ok(out)
}

fn enumerate(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut sources: Vec<SourceFile> = Vec::new();
    for member in members(root)? {
        let crate_root = member.dir.join("src").join("lib.rs");
        let mut files = Vec::new();
        collect_rs_files(&member.dir.join("src"), &mut files)?;
        collect_rs_files(&member.dir.join("benches"), &mut files)?;
        collect_rs_files(&member.dir.join("examples"), &mut files)?;
        files.sort();
        for file in files {
            let label = rel_label(root, &file);
            // The root member's walk must not descend into crates/
            // (each crate is scanned as its own member).
            if member.name == "root" && label.starts_with("crates/") {
                continue;
            }
            sources.push(SourceFile {
                raw: fs::read_to_string(&file)?,
                policy: policy_for(&member.name, &label),
                is_crate_root: file == crate_root,
                crate_name: member.name.clone(),
                label,
            });
        }
    }
    Ok(sources)
}

/// What a scan did, for `--timings` and the budget gate.
#[derive(Debug, Clone, Default)]
pub struct ScanStats {
    /// Files in the analyzed set.
    pub files: usize,
    /// `(phase, microseconds)` in execution order: walk, summarize,
    /// then the per-rule link breakdown.
    pub phases: Vec<(&'static str, u128)>,
}

/// Load every member crate's sources and run the full rule set over
/// them. Returns sorted findings (empty means the workspace holds all
/// invariants) plus what the scan did.
pub fn scan_workspace(root: &Path) -> io::Result<(Vec<Finding>, ScanStats)> {
    let t_walk = Instant::now();
    let sources = enumerate(root)?;
    let mut stats = ScanStats { files: sources.len(), ..ScanStats::default() };
    stats.phases.push(("walk", t_walk.elapsed().as_micros()));

    let t_sum = Instant::now();
    let sums: Vec<_> = sources.iter().map(crate::summary::summarize).collect();
    stats.phases.push(("summarize", t_sum.elapsed().as_micros()));

    let findings = crate::rules::link_timed(&sums, &mut stats.phases);
    Ok((findings, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_sorted_and_skips_target_and_symlinks() {
        let base =
            std::env::temp_dir().join(format!("teleios-lint-walk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let src = base.join("src");
        fs::create_dir_all(src.join("b")).unwrap();
        fs::create_dir_all(src.join("target")).unwrap();
        fs::write(src.join("lib.rs"), "").unwrap();
        fs::write(src.join("b").join("mod.rs"), "").unwrap();
        fs::write(src.join("target").join("gen.rs"), "").unwrap();
        fs::create_dir_all(base.join("elsewhere")).unwrap();
        fs::write(base.join("elsewhere").join("esc.rs"), "").unwrap();
        #[cfg(unix)]
        std::os::unix::fs::symlink(base.join("elsewhere"), src.join("link")).unwrap();

        let mut files = Vec::new();
        collect_rs_files(&src, &mut files).unwrap();
        let names: Vec<String> = files.iter().map(|p| rel_label(&base, p)).collect();
        assert_eq!(names, vec!["src/b/mod.rs", "src/lib.rs"]);
        fs::remove_dir_all(&base).unwrap();
    }
}
