#!/usr/bin/env python3
"""Benchmark runner for opm-repro.

Builds the harness in perfbench/harness (a Cargo package of its own,
with path dependencies on the repository's crates), runs one workload in
its own process and prints two JSON lines on stdout: a host block, then
the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record      # rewrite the pinned output digests

Workloads: campaign, serve-small, serve-batch, memsim. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. The command exits nonzero when a build fails, an output
check fails, or the harness does not print every metric it must.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "serve-small", "serve-batch", "memsim")
# Kill a harness that overruns its window by this much.
GRACE_S = 120
# An untraced run splits its window over this many processes, one after
# another, and every end-to-end metric is the median over them: set-up is
# timed from process start, and a run should not rest on what one
# process drew.
PROCESSES = 5


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Build the harness; return its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "harness" / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the harness failed")
    exe = target_dir() / "release" / "opm-perfbench"
    if not exe.is_file():
        fail(f"{exe} missing after the build")
    return exe


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def child_env():
    # The harness must see the documented defaults, not stray OPM_* knobs.
    return {k: v for k, v in os.environ.items() if not k.startswith("OPM_")}


def run_harness(exe, workload, seed, seconds, trace, record=False):
    """Run one workload; return the harness's JSON report."""
    work = target_dir() / "perfbench" / workload
    for scratch in ("results", "replay"):
        shutil.rmtree(work / scratch, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--digests", str(HERE / "digests"), "--work", str(work)]
    if record:
        cmd.append("--record")
    log = work / "stderr.log"
    try:
        with open(log, "w") as err:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                  stderr=err, text=True, timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness overran its window")
    finally:
        for scratch in ("results", "replay"):
            shutil.rmtree(work / scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = log.read_text().strip().splitlines()[-5:]
        fail(f"{workload}: harness exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(lines[-1])


def measure(exe, workload, seed, seconds, trace):
    """One benchmark run. A traced run is one process; an untraced run is
    PROCESSES processes sharing the window, merged into one report whose
    metrics are medians over the processes."""
    if trace:
        return run_harness(exe, workload, seed, seconds, 1)
    parts = [run_harness(exe, workload, seed, seconds / PROCESSES, 0)
             for _ in range(PROCESSES)]
    report = dict(parts[0])
    report["metrics"] = {
        name: {"value": statistics.median(p["metrics"][name]["value"] for p in parts),
               "unit": m["unit"]}
        for name, m in parts[0]["metrics"].items()
    }
    report["attempted"] = sum(p["attempted"] for p in parts)
    report["failed"] = sum(p["failed"] for p in parts)
    report["errors"] = [e for p in parts for e in p["errors"]]
    report["window"] = [p["window"] for p in parts]
    for p in parts[1:]:
        if (p["exact"], p["inputs_digest"]) != (report["exact"], report["inputs_digest"]):
            report["failed"] += 1
            report["errors"].append("exact counts or inputs differ between processes")
    return report


def fill_layers(report, layers):
    """Add every per-layer metric the workload does not measure, as 0.

    A traced run prints every per-layer metric of BENCHMARK.json; a layer
    the workload never calls reads 0. Returns the names filled in.
    """
    got = report["metrics"]
    filled = [m["name"] for m in layers if m["name"] not in got]
    for name in filled:
        unit = next(m["unit"] for m in layers if m["name"] == name)
        got[name] = {"value": 0, "unit": unit}
    return filled


def check_metrics(report, wanted):
    """Every wanted metric present, finite and in its unit; nothing else."""
    got = report["metrics"]
    problems = []
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            problems.append(f"{m['name']} missing")
        elif not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{m['name']} is not a finite number")
        elif v["unit"] != m["unit"]:
            problems.append(f"{m['name']} in {v['unit']}, not {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append("unexpected metrics " + ", ".join(sorted(extra)))
    return problems


def first_line(cmd):
    # A checkout that is not a git repository must not report the
    # revision of a repository around it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else None
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return None


def filesystem(path):
    """Type of the filesystem holding `path`, from /proc/mounts."""
    best, fstype = "", None
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                if (str(path) + "/").startswith(mount.rstrip("/") + "/") and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_block(report, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": first_line(["rustc", "-V"]),
        "git_rev": first_line(["git", "rev-parse", "HEAD"]),
        "engine_threads": report["engine_threads"],
        "results_fs": filesystem(target_dir() / "perfbench"),
        "inputs_digest": report["inputs_digest"],
        "window": report["window"],
        "exact": report["exact"],
        "errors": report["errors"],
    }


def run_once(args):
    exe = build()
    kind = "per_layer" if args.trace else "end_to_end"
    report = measure(exe, args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        fill_layers(report, spec()["per_layer"])
    problems = check_metrics(report, spec()[kind])
    if problems:
        fail(f"{args.workload}: " + "; ".join(problems))
    print(json.dumps({"host": host_block(report, args)}))
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    for e in report["errors"]:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
    sys.exit(0 if correct else 1)


def record():
    """Rewrite digests/campaign.txt and digests/memsim.txt from a run."""
    exe = build()
    for workload in ("campaign", "memsim"):
        report = run_harness(exe, workload, 1, 1, 0, record=True)
        if report["failed"]:
            fail(f"{workload}: {report['errors']}")
    print("perfbench: digests recorded", file=sys.stderr)


def fnv64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def self_test():
    """Short runs of every workload that check the benchmark itself."""
    exe = build()
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS), "workload list"
    failures = []

    def expect(cond, what):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}", file=sys.stderr)
        if not cond:
            failures.append(what)

    dev, other = 1, 2
    measured = set()
    for w in WORKLOADS:
        print(f"self-test: {w}", file=sys.stderr)
        runs = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = measure(exe, w, dev, 2, trace)
            runs[trace] = r
            if trace:
                filled = fill_layers(r, s["per_layer"])
                measured |= set(r["metrics"]) - set(filled)
            expect(r["failed"] == 0 and r["attempted"] >= 1, f"{w} trace {trace}: outputs correct")
            problems = check_metrics(r, s[kind])
            expect(not problems, f"{w} trace {trace}: every {kind} metric printed, finite, "
                                 f"in its unit {problems or ''}")
        expect(len(runs[0]["window"]) == PROCESSES,
               f"{w}: an untraced run spans {PROCESSES} processes")
        # The exact counts and inputs of one seed repeat across processes.
        expect(runs[0]["exact"] == runs[1]["exact"], f"{w}: seed {dev} repeats every exact count")
        expect(runs[0]["inputs_digest"] == runs[1]["inputs_digest"], f"{w}: seed {dev} repeats its inputs")
        if w in ("serve-batch", "memsim"):
            r = run_harness(exe, w, other, 1, 0)
            expect(r["inputs_digest"] != runs[0]["inputs_digest"],
                   f"{w}: seed {other} changes the inputs")

    unmeasured = sorted({m["name"] for m in s["per_layer"]} - measured)
    expect(not unmeasured, f"every per-layer metric is measured by some workload {unmeasured or ''}")

    # The pinned campaign CSVs against the committed results/ directory:
    # every file matches except fig01_gemm_pdf.csv (a known divergence).
    differ = []
    for line in (HERE / "digests" / "campaign.txt").read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, size, digest = line.split()
        committed = ROOT / "results" / name
        data = committed.read_bytes() if committed.is_file() else None
        if data is None or len(data) != int(size) or fnv64(data) != int(digest, 16):
            differ.append(name)
    expect(differ == ["fig01_gemm_pdf.csv"],
           f"campaign CSVs equal results/ except fig01_gemm_pdf.csv (differ: {differ})")

    if failures:
        fail(f"self-test: {len(failures)} check(s) failed")
    print("self-test: all checks passed", file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()
    if not (HERE / "harness" / "Cargo.toml").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        fail("run from a checkout holding BENCHMARK.json and perfbench/")
    if args.self_test:
        self_test()
    elif args.record:
        record()
    elif args.workload:
        if args.seed < 0 or args.seconds <= 0:
            fail("--seed must be >= 0 and --seconds > 0")
        run_once(args)
    else:
        p.error("--workload, --self-test or --record is required")


if __name__ == "__main__":
    main()
