#!/usr/bin/env python3
"""Outside-in benchmark of coredis.

Builds the perfbench program (and the library it links) from the sources
of this checkout, runs one workload in its own process and prints, as
the last line of standard output, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END below),
with --trace 1 the per-layer ones (PER_LAYER). The exit code is 0 only
when every output check passed. See perfbench/README.md.

  python3 perfbench/run.py --workload cell_n1000 --seed 42 --seconds 10 --trace 0
  python3 perfbench/run.py --manifest > BENCHMARK.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench"

RUN_SECONDS = 30
SETUP_RUNS = 20  # set-up is timed in this many processes before the run
                 # and as many after it; the median is kept
DEADLINE_S = 170  # a run must end within 180 s

WORKLOADS = [
    ("cell_n1000",
     "cold paper cells (n=1000, p=10n, one thread, fresh workspace each): "
     "core's cold Algorithm 1 fill and fault-free EndLocal scans dominate"),
    ("grid_small",
     "10k tiny cells (n=4, p=16), run_campaign at T=2 threads and dealt to "
     "W=2 DealWorkers then merged: queue, committer, JSONL and merge dominate"),
    ("serve_mix",
     "in-process Server (T=2, 4 connections), open-loop Poisson 25 req/s = "
     "0.15 of its measured capacity, n=100 p=1000 what_if/admit, pool 24 of "
     "32 keys: core state stays warm"),
]

# name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cell_s", "s", "lower", 0.25),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

PAPER = ["baseline", "ig_greedy", "ig_local", "stf_greedy", "stf_local",
         "rc_fault_free"]
PER_LAYER = (
    [("core.alg1_cold_s", "s"), ("core.alg1_warm_s", "s"),
     ("core.alg1_rss_mb", "MB"), ("core.col_depth_mean", "count"),
     ("core.col_depth_max", "count"), ("core.eq4_cold_ns", "ns"),
     ("core.eq4_warm_ns", "ns")]
    + [(f"core.cfg.{name}_s", "s") for name in PAPER]
    + [(f"core.phase.{phase}_s", "s")
       for phase in ("alg1", "dispatch", "scan", "commit")]
    + [(f"core.count.{count}", "count")
       for count in ("events", "heuristic_calls", "commits",
                     "redistributions")]
    + [("exp.workspace_s", "s"), ("exp.compute_s", "s"),
       ("exp.orchestrate_s", "s"),
       ("exp.jsonl_bytes", "count"), ("exp.run_block_ms", "ms"),
       ("exp.finalize_s", "s"), ("exp.summarize_s", "s"),
       ("exp.resume_scan_s", "s"), ("util.parallel_eff", "ratio"),
       ("serve.parse_us", "us"), ("serve.render_us", "us"),
       ("serve.ping_rtt_us", "us"), ("serve.exec_hit_ms", "ms"),
       ("serve.exec_miss_ms", "ms"), ("serve.pool_hit_ratio", "ratio"),
       ("serve.batch_mean", "count"), ("harness.gen_lag_ms", "ms"),
       ("harness.trace_overhead", "ratio")]
    + [(f"{layer}.self_s", "s") for layer in ("core", "exp", "serve")]
)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": better(n)}
                      for n, u in PER_LAYER],
    }


def better(name):
    higher = ("util.parallel_eff", "serve.pool_hit_ratio", "serve.batch_mean")
    return "higher" if name in higher else "lower"


def log(text):
    print(f"run.py: {text}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring perfbench up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no coredis sources next to {HERE.name}/ to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "perfbench"], check=True, stdout=sys.stderr)


def command_line(args, extra):
    command = [str(BINARY), "--workload", args.workload, "--out", str(OUT),
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        command.append("--tiny")
    if args.threads:
        command += ["--threads", str(args.threads)]
    return command + extra


def setup_samples(args):
    """Set-up times of SETUP_RUNS processes, each as the process measured
    it: from its own code's first instruction to its first timed call."""
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(command_line(args, ["--setup-only"]),
                              stdout=subprocess.PIPE, text=True, timeout=60)
        word, _, seconds = done.stdout.strip().partition(" ")
        if done.returncode != 0 or word != "ready":
            raise RuntimeError("set-up run failed")
        samples.append(float(seconds))
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="T (default min(2, nproc))")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; no pinned digests")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    try:
        build()
        OUT.mkdir(parents=True, exist_ok=True)
        setup = [] if args.trace else setup_samples(args)
        remaining = DEADLINE_S - (time.monotonic() - started)
        done = subprocess.run(command_line(args, ["--trace", str(args.trace)]),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, remaining))
        if not args.trace:
            setup += setup_samples(args)
    except (OSError, RuntimeError, subprocess.SubprocessError) as failure:
        log(f"{failure}")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"perfbench exited with {done.returncode}")
        return 1
    result = json.loads(lines[-1])
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}

    wanted = END_TO_END if args.trace == 0 else PER_LAYER
    expected = {name: unit for name, unit, *_ in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        log(f"metrics differ from the manifest: missing "
            f"{sorted(set(expected) - set(got))}, unexpected "
            f"{sorted(set(got) - set(expected))}")
        return 1
    for name, unit in expected.items():
        log(f"{name:28s} {result['metrics'][name]['value']:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
