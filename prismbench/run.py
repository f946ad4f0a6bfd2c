#!/usr/bin/env python3
"""Prism user-path benchmark runner.

Builds the benchmark (and the Prism library and daemon it drives)
from this checkout's sources, runs one workload, stamps the result
with the host it ran on, and prints the result object as the last
line of standard output.

    python3 prismbench/run.py --workload cold-build --seed 1 \
        --seconds 10 --trace 0
    python3 prismbench/run.py --self-check

Build outputs and scratch caches go under $CARGO_TARGET_DIR (default
.bench_build) in the checkout; the scratch directory of a run is
removed when the run ends. See prismbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["cold-build", "warm-search", "serve-mixed", "validate"]
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# One run must end within 180 s; leave room for the stamp and cleanup.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"prismbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(jobs):
    """Configure (once) and build; returns the CMake build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no Prism sources at {ROOT / 'src'}; nothing to benchmark")
        sys.exit(2)
    out = build_root() / "prismbench"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        subprocess.run(
            ["cmake", "--build", str(out), "--target", "prismbench",
             "prism_serve", "-j", str(jobs)],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def cmake_cache(out, key):
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def source_digest():
    """Content hash of everything the benchmark builds from."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".hh", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_stamp(out):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cxx = cmake_cache(out, "CMAKE_CXX_COMPILER")
    try:
        ver = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        ver = "unknown"
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_model": cpu,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "compiler": f"{cxx} ({ver})",
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "git_revision": rev,
        "source_digest": source_digest(),
    }


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


def run_one(out, workload, seed, seconds, trace, self_check):
    work = build_root() / "work" / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(out / "prismbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", str(work),
           "--serve-bin", str(out / "prism" / "prism_serve")]
    if self_check:
        cmd.append("--self-check")
    steal0, total0 = cpu_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="")
        log(f"{workload}: benchmark exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(proc.stdout, end="")
        log(f"{workload}: last line is not a result object")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: malformed result keys {sorted(result)}")
        return None
    steal1, total1 = cpu_ticks()
    # CPU time the host took from this machine while the run ran: the
    # main source of run-to-run spread on a shared virtual machine.
    summary = {"host_steal_pct": round(
        100.0 * (steal1 - steal0) / max(1, total1 - total0), 2)}
    for line in lines[:-1]:
        if line.startswith("summary: "):
            summary.update(json.loads(line[len("summary: "):]))
        else:
            print(line)
    return result, summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="tiny budgets, one round per workload, and "
                         "perturbed inputs that every check must reject")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required (or pass --self-check)")

    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    try:
        out = build(jobs)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    stamp = host_stamp(out)

    if args.self_check:
        ok = True
        for w in WORKLOADS:
            for trace in (0, 1):
                got = run_one(out, w, args.seed, 1, trace, True)
                good = bool(got) and got[0]["correct"]
                ok = ok and good
                res = got[0] if got else {}
                print(f"self-check {w} trace={trace}: "
                      f"{'ok' if good else 'FAILED'} "
                      f"(attempted {res.get('attempted')}, "
                      f"failed {res.get('failed')})")
        print(json.dumps({"self_check": ok, "host": stamp}))
        return 0 if ok else 1

    got = run_one(out, args.workload, args.seed, args.seconds, args.trace,
                  False)
    if not got:
        return 1
    result, summary = got
    stamp.update(summary)
    print("stamp: " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
