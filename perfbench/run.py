#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (the edgereason library from src/ plus the edgebench
program) as a Release build in $CARGO_TARGET_DIR (default .bench_build),
runs edgebench from the repository root with the thread pool pinned to
four threads, and relays its output; the last line is the JSON result.
Traces and scratch files go to .bench_out/.

--selftest runs every workload at a small size at 1 thread and twice at
the pinned count, and checks that the simulated outputs and their digests
are identical across all three runs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("pareto_sweep", "serve_sessions", "fleet_gray")
PINNED_THREADS = 4
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure and build edgebench; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/ is missing: run from a full checkout of the repository")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = out if out.is_absolute() else ROOT / out
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    steps = (
        ["cmake", "-S", str(BENCH), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", "4", "--target", "edgebench"],
    )
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=f,
                              stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)}", 1)
    return out / "edgebench"


def source_digest():
    """sha256 over the program and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    # Only ask git inside a clone: it must not discover a repository
    # above the checkout.
    if not (ROOT / ".git").exists():
        return "none"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def run_edgebench(exe, args):
    try:
        return subprocess.run([str(exe), *args, "--out", str(OUT)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"edgebench {' '.join(args)} ran past {RUN_TIMEOUT_S} s", 1)


def selftest(exe):
    ok = True
    for w in WORKLOADS:
        outputs = []
        for threads in (1, PINNED_THREADS, PINNED_THREADS):
            r = run_edgebench(exe, ["--workload", w, "--seed", "7",
                                    "--seconds", "0", "--trace", "0",
                                    "--threads", str(threads), "--small"])
            lines = r.stdout.splitlines()
            result = json.loads(lines[-1]) if r.returncode == 0 else {}
            if not result.get("correct"):
                sys.stderr.write(r.stdout + r.stderr)
                print(f"selftest {w} threads={threads}: FAILED run")
                ok = False
            outputs.append([l for l in lines
                            if l.startswith(("sim ", "digest"))])
        same = bool(outputs[0]) and all(o == outputs[0] for o in outputs)
        ok = ok and same
        print(f"selftest {w}: {len(outputs[0])} sim/digest lines "
              f"{'identical' if same else 'DIFFER'} at 1 and "
              f"{PINNED_THREADS} threads and across invocations")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    exe = build()
    OUT.mkdir(exist_ok=True)
    if a.selftest:
        sys.exit(selftest(exe))
    r = run_edgebench(exe, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--threads", str(PINNED_THREADS), "--commit", git_commit(),
        "--source-digest", source_digest()])
    sys.stderr.write(r.stderr)
    sys.stdout.write(r.stdout)
    if r.returncode != 0:
        fail(f"edgebench exited with {r.returncode}", 1)


if __name__ == "__main__":
    main()
