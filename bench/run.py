"""Benchmark driver for snhurwitz: times passes of one workload, each in a fresh interpreter.

    python3 bench/run.py --workload coeff-tables --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20      # every workload, summary only

Passes run back to back until --seconds have elapsed.  With --trace 0 every
pass is untraced and the result holds the end-to-end metrics of
BENCHMARK.json, each the median over passes: wall_s and cpu_s of the pass,
setup_s from interpreter start until the inputs are ready (at least
MIN_SETUP_SAMPLES samples), and peak_rss_mib.  With --trace 1 untraced and
traced passes alternate; the result holds the per-layer metrics, medians
over traced passes, and trace.overhead_s, the traced minus the untraced
median wall time.  The last traced pass's spans go to
.bench_out/spans-<workload>.jsonl.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric's median and
quartiles and the failed ratio.  Every item of every pass is checked
exactly, and a failed check counts in `failed`.  Without the library's
sources next to this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

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
OUT = ROOT / ".bench_out"
WORKLOADS = ("ratio-sweep", "coeff-tables", "oracle-crosscheck", "cache-resume")
MIN_SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 170


class PassFailed(RuntimeError):
    pass


def _launch(workload: str, seed: int, size: str, extra: list[str]) -> dict:
    """Run one pass in a fresh interpreter; setup_s counts from the spawn."""
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, *extra]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    spawned = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassFailed(f"pass of {workload} exited {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Time passes for `seconds`; return per-metric samples and item counts."""
    _launch(workload, seed, size, ["--setup-only"])  # untimed: fills the OS file cache
    plain, traced = [], []
    spans = OUT / f"spans-{workload}.jsonl"
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (trace and not traced):
        if trace and len(traced) < len(plain):
            traced.append(_launch(workload, seed, size, ["--trace", "--spans", str(spans)]))
        else:
            plain.append(_launch(workload, seed, size, []))
    setups = [p["setup_s"] for p in plain + traced]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_launch(workload, seed, size, ["--setup-only"])["setup_s"])
    samples = {
        "wall_s": [p["wall_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "setup_s": setups,
        "peak_rss_mib": [p["peak_rss_mib"] for p in plain],
    }
    if trace:
        for name in traced[0]["layers"]:
            samples[name] = [p["layers"][name] for p in traced]
        samples["trace.overhead_s"] = [
            statistics.median(p["wall_s"] for p in traced) - statistics.median(samples["wall_s"])]
    passes = plain + traced
    return {"samples": samples, "passes": len(passes),
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes)}


def result(measured: dict, metrics: list[dict]) -> dict:
    samples = measured["samples"]
    return {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
                    for m in metrics},
    }


def summary_lines(workload: str, measured: dict, metrics: list[dict]) -> list[str]:
    lines = [f"{workload}: {measured['passes']} passes"]
    for m in metrics:
        values = measured["samples"][m["name"]]
        q1, med, q3 = _quartiles(values)
        lines.append(f"  {m['name']:<32} {med:>14.6g} {m['unit']:<6} "
                     f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    ratio = measured["failed"] / measured["attempted"]
    lines.append(f"  {'failed_ratio':<32} {ratio:>14.6g} {'1':<6} "
                 f"({measured['failed']} of {measured['attempted']} items)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the self-test's small inputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "snhurwitz" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    print(f"seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}, size {args.size}")
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            measured = measure(workload, args.seed, args.seconds, bool(args.trace), args.size)
        except (PassFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(summary_lines(workload, measured, metrics)))
        ok = ok and measured["failed"] == 0
    if args.workload != "all":
        print(json.dumps(result(measured, metrics)))
        return 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
