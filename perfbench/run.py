#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds `perfbench` (a Cargo package of its own, built into
$CARGO_TARGET_DIR or `.bench_build`), runs the workload in a fresh process
and prints its result as the last line of standard output: one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. The metric
names are checked against BENCHMARK.json.

Steadiness report (A/A mode):

    python3 perfbench/run.py --aa <runs> [--seconds <s>] [--seed0 <n>] [--workloads a,b]

runs every workload <runs> times, interleaved, seed <n>, <n>+1, ..., and
prints per workload and metric the median, the quartiles and IQR / median,
with the host it ran on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take up to 180 s; the binary's own budget stays under it.
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary and returns its path, or exits 1."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        log("run.py: build failed")
        sys.exit(1)
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns the parsed result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: {workload} exited with {proc.returncode}")
        sys.exit(1)
    return json.loads(lines[-1])


def check_names(result, trace):
    """Marks the result incorrect when its metrics differ from BENCHMARK.json."""
    expected = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        log(f"run.py: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}, "
            f"unit mismatch {sorted(k for k in got if k in expected and got[k] != expected[k])}")
        result["correct"] = False
    return result


def host_metadata(seeds):
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return [f"nproc: {os.cpu_count()}", f"cpu: {cpu}", f"rustc: {out(['rustc', '-V'])}",
            f"commit: {out(['git', 'rev-parse', 'HEAD'])}", f"seeds: {seeds}"]


def steadiness(args):
    binary = build()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec()["workloads"]]
    seeds = list(range(args.seed0, args.seed0 + args.aa))
    values = {w: {} for w in names}
    for i, seed in enumerate(seeds):
        # Rotate the order so no workload always runs first.
        order = names[i % len(names):] + names[:i % len(names)]
        for w in order:
            result = run_once(binary, w, seed, args.seconds, 0)
            if not result["correct"]:
                log(f"run.py: {w} seed {seed}: output checks failed")
                sys.exit(1)
            for k, v in result["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
            log(f"{w} seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    for line in host_metadata(seeds):
        print(line)
    print(f"{'workload':<24} {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>11}")
    for w in names:
        for k, vs in values[w].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{w:<24} {k:<24} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>11.4f}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--aa", type=int, help="steadiness report over this many interleaved runs")
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated subset for --aa")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.aa:
        steadiness(args)
        return
    if args.workload is None or args.seed is None:
        p.error("--workload and --seed are required")
    binary = build()
    result = check_names(run_once(binary, args.workload, args.seed, args.seconds, args.trace), args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
