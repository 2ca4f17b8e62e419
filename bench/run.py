"""Run one benchmark workload against the program in this checkout.

    python3 bench/run.py --workload audit-4q --seed 7 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics: a few fresh processes each
import the program and serve the first request (set-up time), then one
worker runs the request stream closed-loop for --seconds.  --trace 1
replays a fixed request list with and without spans around the
program's public functions and reports the per-layer metrics.  Every
output is checked against the reference in reference.py.

Stdout carries a report of every metric with its unit and sample count,
the environment block, and, as its last line, one JSON object with the
metrics BENCHMARK.json lists for the mode.  Exit code 0 means the run
completed, whatever `correct` says; anything else means it could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 7  # fresh processes whose set-up times give setup_s's median
# setup_s is set-up time in probe units times this: seconds at the probe time
# of the host's fast mode
REF_PROBE_S = 2.4e-3
# A run may take SETUP_RUNS * SETUP_ALLOWANCE_S + 2 * --seconds + MARGIN_S.
SETUP_ALLOWANCE_S = 8.0
MARGIN_S = 30.0
PINNED = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(mode: str, args, tmp: Path, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--tmp", str(tmp),
           "--spawn-ns", str(time.time_ns())]
    env = {**os.environ, **PINNED, "PYTHONPATH": ""}
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker exceeded the time limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(args, tmp: Path) -> dict:
    deadline = (time.monotonic() + SETUP_RUNS * SETUP_ALLOWANCE_S + 2 * args.seconds
                + MARGIN_S)
    if args.trace:
        return spawn("traced", args, tmp, deadline)
    # request 0's output is checked by the timed worker, which runs it too
    setups = [spawn("setup", args, tmp, deadline) for _ in range(SETUP_RUNS - 1)]
    result = spawn("timed", args, tmp, deadline)
    setups.append(result["setup"])
    result["metrics"]["setup_s"] = {
        "value": REF_PROBE_S * statistics.median(s["setup_probes"] for s in setups),
        "unit": "s", "samples": len(setups)}
    result["metrics"]["setup_raw_s"] = {
        "value": statistics.median(s["setup_s"] for s in setups), "unit": "s",
        "samples": len(setups)}
    return result


def report(result: dict, gated: list[str]) -> None:
    print(f"{'metric':<44} {'value':>14} {'unit':<10} {'samples':>8}")
    for name, m in result["metrics"].items():
        mark = "  *" if name in gated else ""
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']:<10} {m['samples']:>8}{mark}")
    print("(* = listed in BENCHMARK.json)")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    for p in result["problems"]:
        print(f"problem: {p}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "remoments" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'remoments'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    tmp = ROOT / ".bench_build" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [n for n in gated if n not in result["metrics"]]
    if missing:
        print(f"error: run produced no value for {missing}", file=sys.stderr)
        return 1
    report(result, gated)
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]}
                    for n in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
