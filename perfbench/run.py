#!/usr/bin/env python3
"""Builds and runs the ISPN simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root.  The first call configures and builds the
simulator library plus the benchmark program (perfbench/ispn_perfbench.cc) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls rebuild incrementally.  Build output goes to stderr.

The program's stdout is passed through: '#' lines carry the provenance
(host fingerprint, git SHA or source digest), per-repetition progress and
sim_digest, and the last line is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs every workload
untraced and traced and prints each metric by name and unit.

Seeds 1-20 are the tuning seeds; HELD_OUT_SEED is kept for checking
claims (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["fanin-flowscale", "cc-fault-mesh"]
HELD_OUT_SEED = 104729
RUN_TIMEOUT_S = 170

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the program; returns its path or None."""
    if not (ROOT / "src" / "scenario" / "runner.h").is_file() or \
            not (ROOT / "CMakeLists.txt").is_file():
        log("perfbench: no simulator sources (src/, CMakeLists.txt) under "
            f"{ROOT}; nothing to build")
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "ispn_perfbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    binary = out / "ispn_perfbench"
    return binary if binary.is_file() else None


def git_sha():
    """HEAD's SHA read from .git without running git (None outside a repo)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the simulator sources and build file (checkouts that are
    not git repositories still get a stable identity)."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in [ROOT / "CMakeLists.txt"] + files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance():
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "os": platform.platform(),
        "git_sha": git_sha() or "none (not a git checkout)",
        "source_digest": source_digest(),
    }


def run_bench(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the program once; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=str(ROOT))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def parse_result(lines):
    """The program's final JSON line, validated; None when malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def run_all(binary, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_bench(binary, workload, seed, seconds, trace)
            result = parse_result(lines)
            digest = [l for l in lines if l.startswith("# sim_digest=")]
            print(f"== {workload} trace={trace} "
                  f"{digest[0][2:] if digest else 'sim_digest=?'}")
            for line in lines:
                if line.startswith("# slowest") or line.startswith("#   ") \
                        or line.startswith("# tracing overhead"):
                    print(line)
            if code != 0 or result is None:
                print("   run failed")
                ok = False
                continue
            print(f"   correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")
            ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s, or 'all'" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help=f"workload seed (1-20 for tuning; {HELD_OUT_SEED} "
                    "is held out for checking claims)")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny horizon (the smoke test's mode)")
    args = ap.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")

    binary = build()
    if binary is None:
        return 2
    for key, value in provenance().items():
        print(f"# host.{key}: {value}")
    sys.stdout.flush()
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)

    code, lines = run_bench(binary, args.workload, args.seed, args.seconds,
                             args.trace, args.smoke)
    if code != 0 or parse_result(lines) is None:
        for line in lines[:-1]:
            print(line)
        log(f"perfbench: run exited {code} without a valid result")
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
