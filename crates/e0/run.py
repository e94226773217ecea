#!/usr/bin/env python3
"""Build the observatory and the e0 harness with plain `rustc`, then run e0.

The sandbox has a Rust toolchain but no crate registry, so `cargo` cannot
resolve crossbeam/parking_lot/rand/bytes/serde. This script compiles every
product crate from the checkout's sources against the std-backed stand-ins
in `crates/e0/shims/`, caches the result under `$CARGO_TARGET_DIR/e0`
(fingerprinted per crate, so an unchanged crate is never rebuilt), and
execs the `e0` binary with the arguments it was given.

Usage (from the repository root):
    python3 crates/e0/run.py --workload chain_ingest --seed 1 --seconds 12 --trace 0
    python3 crates/e0/run.py --self-test     # the crate's unit and integration tests, without cargo
"""

import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
E0 = ROOT / "crates" / "e0"
OUT = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve() / "e0"

# Same code generation as the workspace's `cargo build --release`.
RUSTC_FLAGS = ["--edition", "2021", "-C", "opt-level=3", "-C", "codegen-units=16", "--cap-lints", "allow"]

# name -> (kind, root source relative to ROOT, dependencies), in build order.
CRATES = {
    "crossbeam": ("rlib", "crates/e0/shims/crossbeam.rs", []),
    "parking_lot": ("rlib", "crates/e0/shims/parking_lot.rs", []),
    "rand": ("rlib", "crates/e0/shims/rand.rs", []),
    "bytes": ("rlib", "crates/e0/shims/bytes.rs", []),
    "serde_derive": ("proc-macro", "crates/e0/shims/serde_derive.rs", []),
    "serde": ("rlib", "crates/e0/shims/serde.rs", ["serde_derive"]),
    "serde_json": ("rlib", "crates/e0/shims/serde_json.rs", ["serde"]),
    "teleios_store": ("rlib", "crates/store/src/lib.rs", []),
    "teleios_exec": ("rlib", "crates/exec/src/lib.rs", ["crossbeam"]),
    "teleios_geo": ("rlib", "crates/geo/src/lib.rs", ["teleios_exec"]),
    "teleios_monet": ("rlib", "crates/monet/src/lib.rs", ["parking_lot", "teleios_exec", "teleios_store"]),
    "teleios_sciql": ("rlib", "crates/sciql/src/lib.rs", ["teleios_monet"]),
    "teleios_rdf": ("rlib", "crates/rdf/src/lib.rs", ["teleios_geo", "teleios_store"]),
    "teleios_strabon": ("rlib", "crates/strabon/src/lib.rs", ["teleios_rdf", "teleios_geo", "teleios_exec"]),
    "teleios_vault": (
        "rlib",
        "crates/vault/src/lib.rs",
        ["teleios_monet", "teleios_geo", "teleios_store", "bytes", "serde", "serde_json"],
    ),
    "teleios_ingest": (
        "rlib",
        "crates/ingest/src/lib.rs",
        ["teleios_geo", "teleios_monet", "teleios_rdf", "teleios_vault", "rand"],
    ),
    "teleios_linked": ("rlib", "crates/linked/src/lib.rs", ["teleios_geo", "teleios_rdf", "rand"]),
    "teleios_mining": ("rlib", "crates/mining/src/lib.rs", ["teleios_geo", "teleios_rdf", "teleios_ingest", "rand"]),
    "teleios_noa": (
        "rlib",
        "crates/noa/src/lib.rs",
        [
            "teleios_geo", "teleios_monet", "teleios_sciql", "teleios_rdf", "teleios_strabon",
            "teleios_ingest", "teleios_linked", "teleios_exec", "serde_json", "crossbeam",
        ],
    ),
    "teleios_resilience": (
        "rlib",
        "crates/resilience/src/lib.rs",
        [
            "teleios_geo", "teleios_monet", "teleios_ingest", "teleios_vault", "teleios_noa",
            "teleios_exec", "teleios_store", "rand", "bytes",
        ],
    ),
    "teleios_core": (
        "rlib",
        "crates/core/src/lib.rs",
        [
            "teleios_geo", "teleios_monet", "teleios_sciql", "teleios_rdf", "teleios_strabon", "teleios_vault",
            "teleios_ingest", "teleios_mining", "teleios_linked", "teleios_noa", "teleios_resilience",
        ],
    ),
    "teleios_e0": (
        "rlib",
        "crates/e0/src/lib.rs",
        [
            "teleios_core", "teleios_vault", "teleios_monet", "teleios_sciql", "teleios_ingest", "teleios_noa",
            "teleios_mining", "teleios_rdf", "teleios_strabon", "teleios_geo", "teleios_linked", "teleios_store",
            "teleios_exec",
        ],
    ),
    "e0": ("bin", "crates/e0/src/main.rs", ["teleios_e0"]),
}


def artifact(name):
    kind = CRATES[name][0]
    if kind == "bin":
        return OUT / name
    return OUT / (f"lib{name}.so" if kind == "proc-macro" else f"lib{name}.rlib")


def sources(name):
    """The files a crate is compiled from: a shim is one file, a crate its `src/` tree."""
    root = ROOT / CRATES[name][1]
    return [root] if root.parent.name == "shims" else sorted(root.parent.rglob("*.rs"))


def fingerprint(name, toolchain, memo):
    if name not in memo:
        h = hashlib.sha256(toolchain.encode())
        for dep in CRATES[name][2]:
            h.update(fingerprint(dep, toolchain, memo).encode())
        for path in sources(name):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
        memo[name] = h.hexdigest()
    return memo[name]


def compile_crate(name):
    kind, root, deps = CRATES[name]
    cmd = ["rustc", *RUSTC_FLAGS, "--crate-name", name, "--crate-type", kind, "-L", str(OUT), "-o", str(artifact(name))]
    if kind == "proc-macro":
        cmd += ["--extern", "proc_macro"]
    for dep in deps:
        cmd += ["--extern", f"{dep}={artifact(dep)}"]
    # Keep rustc's and the linker's temporaries inside the build directory.
    env = dict(os.environ, TMPDIR=str(OUT))
    done = subprocess.run(cmd + [str(ROOT / root)], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"rustc failed on {name}:\n{done.stderr}")


def build():
    """Bring every artifact up to date; crates whose dependencies are ready compile two at a time."""
    OUT.mkdir(parents=True, exist_ok=True)
    toolchain = subprocess.run(["rustc", "-vV"], capture_output=True, text=True, check=True).stdout + " ".join(RUSTC_FLAGS)
    memo = {}
    stale = []
    for name in CRATES:
        stamp = OUT / f"{name}.fingerprint"
        wanted = fingerprint(name, toolchain, memo)
        if not (artifact(name).exists() and stamp.exists() and stamp.read_text() == wanted):
            stamp.unlink(missing_ok=True)
            stale.append(name)
    done = set(CRATES) - set(stale)
    with ThreadPoolExecutor(max_workers=2) as pool:
        while stale:
            ready = [n for n in stale if all(d in done for d in CRATES[n][2])]
            for _ in pool.map(compile_crate, ready):
                pass
            for name in ready:
                (OUT / f"{name}.fingerprint").write_text(memo[name])
                done.add(name)
            stale = [n for n in stale if n not in done]


def self_test():
    """Compile the crate's unit tests and each `tests/*.rs` with `rustc --test`, and run them."""
    kind, root, deps = CRATES["teleios_e0"]
    suites = [("unit", ROOT / root, deps)] + [(t.stem, t, ["teleios_e0", *deps]) for t in sorted((E0 / "tests").glob("*.rs"))]
    for name, source, externs in suites:
        binary = OUT / f"test_{name}"
        cmd = ["rustc", *RUSTC_FLAGS, "--test", "--crate-name", f"e0_test_{name}", "-L", str(OUT), "-o", str(binary)]
        for dep in externs:
            cmd += ["--extern", f"{dep}={artifact(dep)}"]
        subprocess.run(cmd + [str(source)], check=True, env=dict(os.environ, TMPDIR=str(OUT)))
        if subprocess.run([str(binary)], cwd=E0).returncode != 0:
            return 1
    return 0


def main():
    try:
        build()
        if sys.argv[1:] == ["--self-test"]:
            return self_test()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"e0: build failed: {err}", file=sys.stderr)
        return 2
    # e0 writes its trace files next to the build.
    env = dict(os.environ, CARGO_TARGET_DIR=str(OUT.parent))
    return subprocess.run([str(artifact("e0")), *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
