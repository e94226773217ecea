//! `e0` — run the observatory benchmark.
//!
//! `e0 --seed 1` runs the four workloads in one process and prints
//! every end-to-end metric by name and unit; `--trace 1` also runs the
//! traced mirror, prints the per-layer metrics and writes
//! `trace-<workload>.json`. After each workload's block comes one JSON
//! line with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`; with `--workload <name>` it is the last line of output,
//! which is what the benchmark driver reads. Exits non-zero on any
//! correctness failure.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use teleios_e0::runner::{self, Options};

/// Where trace files go: next to the build, inside the checkout.
fn trace_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into())).join("e0")
}

/// Write one trace file (the only file the benchmark writes).
fn write_trace(dir: &Path, path: &Path, text: &str) -> std::io::Result<()> {
    // teleios-lint: allow(no-direct-fs) — the benchmark's own output directory, not engine state
    std::fs::create_dir_all(dir)?;
    // teleios-lint: allow(no-direct-fs) — the trace file, written once after the run; not engine state
    std::fs::write(path, text)
}

fn run_suite(opts: &Options) -> Result<bool, String> {
    let threads = runner::pin_threads();
    let mut all_correct = true;
    for workload in &opts.workloads {
        let report = runner::run(workload, opts, threads)?;
        print!("{}", report.text());
        if let Some(trace) = &report.trace_file {
            let dir = trace_dir();
            let path = dir.join(format!("trace-{workload}.json"));
            match write_trace(&dir, &path, &trace.render()) {
                Ok(()) => println!("   trace written to {}", path.display()),
                Err(e) => return Err(format!("cannot write {}: {e}", path.display())),
            }
        }
        println!("{}", report.result_line());
        all_correct &= report.correct;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match runner::parse_args(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("e0: {why}\n{}", runner::USAGE);
            return ExitCode::from(2);
        }
    };
    match run_suite(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("e0: {why}");
            ExitCode::from(2)
        }
    }
}
