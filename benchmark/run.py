"""Benchmark for synto: run one workload for a fixed time and print metrics.

    python3 benchmark/run.py --workload table --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports synto from src/.  A
run repeats whole rounds of the workload's operations (workloads.py) until
another round would not fit in --seconds; it always runs at least one.  Each
operation runs in a fresh process (op.py), one process at a time, so caches
start cold as in a user's `synto` call.  The seed shuffles the order of the
operations in each round and changes nothing else.

Every output is checked against an answer computed apart from synto
(checks.py); an operation whose process fails, or whose output is wrong,
counts as failed.  The last line of standard output is one JSON object:

    {"correct": bool, "attempted": n, "failed": n,
     "metrics": {name: {"value": x, "unit": u}, ...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Times of an operation are medians over the
run's rounds; a workload's time is the sum of those medians.

Every time is in reference seconds.  A shared host's speed drifts by up to
a factor of two, within a second and over minutes, which no length of run
averages out.  So each process also times a fixed piece of pure-Python
work, op.calibrate(), before, during and after its operation, and every
time it reports is multiplied by REF_CAL_S / (the mean calibration time).  A change
in synto moves the scaled times as much as the raw ones; a change in the
machine's speed moves both the operation and the calibration, and cancels.
A traced run also reports the raw total and the calibration time itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must end within 180 s; no operation may run past this point of it.
RUN_LIMIT_S = 170
# The reference machine's time for op.calibrate(), about the median on a
# 2-vCPU VM at its usual speed: reference seconds are raw seconds scaled by
# REF_CAL_S / (this process's mean calibration time).
REF_CAL_S = 0.0024


def parse_args(argv, names: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict[str, str]:
    """The caller's environment, but with bytecode caching on, as for an
    installed package: set-up time then measures imports, not compiling."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_op(op: dict, trace: int, env: dict,
           timeout: float = RUN_LIMIT_S) -> tuple[dict | None, str]:
    """(report, error) of one operation in a fresh process."""
    argv = [sys.executable, str(BENCH_DIR / "op.py"), json.dumps(op), str(trace)]
    spawned_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, f"no report: {proc.stdout[-200:]!r}"
    report["setup_s"] = (report["imported_ns"] - spawned_ns) / 1e9
    return report, ""


class Run:
    """Samples of one run, per operation name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.op_s: dict[str, list[float]] = {}
        self.raw_op_s: dict[str, list[float]] = {}
        self.setup_s: list[float] = []
        self.cal_s: list[float] = []
        self.rss_kb = 0
        self.layer: dict[str, dict[str, list[float]]] = {}
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def record(self, op: dict, report: dict | None, error: str) -> None:
        self.attempted += 1
        problems = [error] if report is None else self._check(op, report)
        if problems:
            self.failed += 1
            print(f"FAILED {op['name']}: {'; '.join(problems)}",
                  file=sys.stderr)
            return
        name = op["name"]
        cal_s = report["cal_ns"] / 1e9
        scale = REF_CAL_S / cal_s
        self.cal_s.append(cal_s)
        self.op_s.setdefault(name, []).append(report["op_ns"] / 1e9 * scale)
        self.raw_op_s.setdefault(name, []).append(report["op_ns"] / 1e9)
        self.setup_s.append(report["setup_s"] * scale)
        self.rss_kb = max(self.rss_kb, report["rss_kb"])
        layers = self.layer.setdefault(name, {})
        for span, ns in report["spans"].items():
            layers.setdefault(f"{span}_s", []).append(ns / 1e9 * scale)
        for span, n in report["calls"].items():
            layers.setdefault(f"{span}_calls", []).append(n)

    def _check(self, op: dict, report: dict) -> list[str]:
        # Outputs are deterministic, so one verdict per distinct output.
        digest = hashlib.sha256(json.dumps(report["output"], sort_keys=True)
                                .encode()).hexdigest()
        key = (op["name"], digest)
        if key not in self._verdicts:
            self._verdicts[key] = checks.check(op, report["output"])
        return self._verdicts[key]

    def wall_s(self, raw: bool = False) -> float:
        samples = self.raw_op_s if raw else self.op_s
        return sum(statistics.median(v) for v in samples.values())

    def end_to_end(self, largest: str) -> dict[str, float]:
        return {
            "wall_s": self.wall_s(),
            "largest_op_s": statistics.median(self.op_s.get(largest, [0.0])),
            "setup_s": statistics.median(self.setup_s or [0.0]),
            "peak_rss_mb": self.rss_kb / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        """Per metric, the sum over operations of the operation's median;
        an operation whose process never entered a layer adds 0."""
        out = {"traced_wall_s": self.wall_s(),
               "raw_wall_s": self.wall_s(raw=True),
               "calibration_s": statistics.median(self.cal_s or [0.0])}
        for layers in self.layer.values():
            for metric, values in layers.items():
                out[metric] = out.get(metric, 0) + statistics.median(values)
        return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "synto" / "__init__.py").is_file():
        print(f"error: no synto source under {ROOT / 'src'}; run from the "
              f"root of a synto checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = BENCH_DIR / "out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        ops = workloads.operations(args.workload, workdir)
        for op in ops:
            op["outdir"] = str(workdir)
        env = child_env()
        rng = random.Random(args.seed)
        run = Run()
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for op in rng.sample(ops, len(ops)):
                left = RUN_LIMIT_S - (time.monotonic() - start)
                run.record(op, *run_op(op, args.trace, env, max(left, 1.0)))
            now = time.monotonic()
            if now + (now - round_start) > start + args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = run.per_layer()
    else:
        values = run.end_to_end(workloads.LARGEST[args.workload])
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    rounds = run.attempted // len(ops)
    print(f"# {args.workload}: {rounds} rounds of {len(ops)} operations, "
          f"{run.failed} failed")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
