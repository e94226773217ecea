#![forbid(unsafe_code)]
//! Driver: `teleios-lint [--root <path>] [--self-test] [--strict]
//! [--format human|json|github] [--timings]`.
//!
//! Default mode scans every workspace member and exits non-zero on
//! any violated invariant (warnings — `unused-allow` — fail only
//! under `--strict`); `--self-test` runs the analyzer over the seeded
//! fixtures — the single-file crate and the two-crate cross-crate
//! workspace — and verifies each rule fires at its exact
//! `file:line:col` (and that the decoys stay silent). `--timings`
//! reports per-phase and per-rule wall-clock on stderr.

use std::path::PathBuf;
use std::process::ExitCode;
use teleios_lint::{Finding, ScanStats};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Github,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: teleios-lint [--root <workspace-dir>] [--self-test] [--strict] \
         [--format human|json|github] [--timings]"
    );
    ExitCode::from(2)
}

fn render(findings: &[Finding], format: Format) {
    match format {
        Format::Human => {
            for f in findings {
                eprintln!("{f}");
            }
        }
        Format::Json => println!("{}", teleios_lint::render::to_json(findings)),
        Format::Github => {
            for f in findings {
                println!("{}", teleios_lint::render::github_annotation(f));
            }
        }
    }
}

fn print_timings(stats: &ScanStats) {
    eprintln!("teleios-lint timings ({} files):", stats.files);
    let mut total: u128 = 0;
    for (name, us) in &stats.phases {
        eprintln!("    {name:<24} {:>9.2}ms", *us as f64 / 1000.0);
        total += us;
    }
    eprintln!("    {:<24} {:>9.2}ms", "total", total as f64 / 1000.0);
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut self_test = false;
    let mut strict = false;
    let mut format = Format::Human;
    let mut timings = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--self-test" => self_test = true,
            "--strict" => strict = true,
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                _ => return usage(),
            },
            "--timings" => timings = true,
            "--help" | "-h" => {
                println!("teleios-lint: TELEIOS workspace invariant checker");
                println!();
                println!("  --root <dir>          workspace root (default: walk up from cwd)");
                println!("  --self-test           verify rules L1-L12 + crate-attrs fire on the seeded fixtures (single-file + cross-crate)");
                println!("  --strict              treat warnings (unused-allow) as errors");
                println!("  --format <fmt>        human (default) | json | github annotations");
                println!("  --timings             per-phase/per-rule wall-clock on stderr");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    if self_test {
        return match teleios_lint::run_self_test() {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
                ExitCode::SUCCESS
            }
            Err(lines) => {
                for line in lines {
                    eprintln!("{line}");
                }
                ExitCode::FAILURE
            }
        };
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match teleios_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("teleios-lint: no workspace Cargo.toml found above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    match teleios_lint::scan_workspace(&root) {
        // A clean scan of zero files means the root was wrong, not that
        // the workspace is clean — a mispathed CI invocation must fail.
        Ok((_, stats)) if stats.files == 0 => {
            eprintln!("teleios-lint: no .rs files under {} (wrong --root?)", root.display());
            ExitCode::FAILURE
        }
        Ok((findings, stats)) => {
            let file_count = stats.files;
            if timings {
                print_timings(&stats);
            }
            let errors = findings.iter().filter(|f| !f.rule.is_warning()).count();
            let warnings = findings.len() - errors;
            let failed = errors > 0 || (strict && warnings > 0);
            if findings.is_empty() {
                if format == Format::Json {
                    println!("[]");
                } else {
                    println!("teleios-lint: workspace clean ({file_count} files, 13 rules)");
                }
                return ExitCode::SUCCESS;
            }
            render(&findings, format);
            if format != Format::Json {
                eprintln!(
                    "teleios-lint: {errors} error(s), {warnings} warning(s) across {file_count} files{}",
                    if failed { "" } else { " — warnings don't fail the gate (use --strict)" }
                );
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("teleios-lint: io error: {e}");
            ExitCode::FAILURE
        }
    }
}
