"""One benchmark process: drives ``remoments.cli.main`` in-process.

`run.py` starts it with BLAS and OpenMP pools pinned to one thread.

    worker.py setup  ...   import the program, run the first request, report set-up time
    worker.py timed  ...   set up, then run the request stream closed-loop for --seconds
    worker.py traced ...   replay a fixed request list, alternating untraced and traced passes

Every request's output is checked against the reference.  The last line
of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

from workloads import CYCLE, TRACED_REQUESTS, Request, request  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
# Probes on each side of request 0; their medians gauge host speed for set-up.
SETUP_PROBES = 10


class Probe:
    """Fixed numpy-only kernel timed between requests to gauge host speed.

    64 eigvalsh on 16x16, one 4-axis transpose, and 64 Hermitian checks
    and eigvalsh on small complex 4x4 products: the small-LAPACK and
    per-call dispatch mix the program runs, with none of its code.  The
    small-matrix half slows in the host's slow mode about as much as the
    workloads do; the 16x16 half alone slows less.
    """

    def __init__(self):
        rng = np.random.default_rng(20250413)
        m = rng.standard_normal((64, 16, 16))
        self.mats = m + m.transpose(0, 2, 1)
        self.tensor = rng.standard_normal((8, 8, 8, 8))
        self.small = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
        self.times: list[float] = []

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for m in self.mats:
            acc += np.linalg.eigvalsh(m)[0]
        acc += np.ascontiguousarray(self.tensor.transpose(2, 0, 3, 1))[0, 1, 2, 3]
        for b in self.small:
            acc += np.abs(b - b.conj().T).max() + np.linalg.eigvalsh(b @ b.conj().T)[0]
        self.times.append(time.perf_counter() - t0)
        return acc


@dataclass
class Result:
    """One executed and checked request."""

    seconds: float
    ops: int
    problems: list[str]
    false_entangled: tuple[int, int] = (0, 0)


@dataclass
class Tally:
    results: list[Result] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(r.ops for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r.ops for r in self.results if r.problems)

    def problems(self, limit: int = 5) -> list[str]:
        return [p for r in self.results for p in r.problems][:limit]


def execute(main, req: Request, tmp: Path) -> tuple[float, object, str, str | None]:
    """Run one request; returns (seconds, exit code, stdout, exception repr)."""
    argv = list(req.argv)
    if req.out:
        out = tmp / req.out
        out.unlink(missing_ok=True)
        argv += ["--out", str(out)]
    stdout, error = io.StringIO(), None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash of the program is a failed op, not a benchmark error
        code, error = None, repr(exc)
    return time.perf_counter() - t0, code, stdout.getvalue(), error


def check(req: Request, code, stdout: str, error: str | None, tmp: Path):
    """Problems with a request's output, and its (false ENTANGLED, evaluations)."""
    import reference

    if error is not None:
        return [f"{req.kind} raised {error}"], (0, 0)
    if code != 0:
        return [f"{req.kind} exited with {code!r}"], (0, 0)
    if req.kind == "threshold":
        return reference.check_threshold(stdout, req.expect), (0, 0)
    out = tmp / req.out
    if not out.is_file():
        return [f"{req.kind} wrote no {req.out}"], (0, 0)
    if req.kind == "sweep":
        return reference.check_sweep(out, req.expect), (0, 0)
    try:
        payload = reference.load_json(out)
    except ValueError as exc:
        return [f"audit JSON unreadable: {exc}"], (0, 0)
    problems = reference.check_audit(payload, req.expect)
    return problems, (reference.false_entangled(payload) if not problems else (0, 0))


def run_checked(main, req: Request, tmp: Path) -> Result:
    seconds, code, stdout, error = execute(main, req, tmp)
    problems, fe = check(req, code, stdout, error, tmp)
    return Result(seconds, req.ops, problems, fe)


def import_program():
    import remoments.cli

    if not Path(remoments.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported remoments from {remoments.cli.__file__}, not from {ROOT / 'src'}")
    return remoments.cli


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def steal_seconds() -> float:
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, probe: Probe, steal: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "steal_s": round(steal, 3),
        "probe_ms_p50": round(1e3 * statistics.median(probe.times), 4) if probe.times else None,
    }


def setup(args):
    """Import the program and run request 0, with probes just before and after it.

    Set-up time counts from process spawn to the end of request 0,
    leaving out the probes.  Its host-normalised form divides the import
    part by the probe before request 0 and request 0 by the mean of the
    probes on both sides, as `op_cost` does for timed requests.  Returns
    the CLI module, request 0, `execute`'s result for it, the set-up
    time in seconds and in probe units.
    """
    cli = import_program()
    import_s = (time.time_ns() - args.spawn_ns) / 1e9
    before, after = Probe(), Probe()
    for _ in range(SETUP_PROBES):
        before()
    req = request(args.workload, args.seed, 0)
    outcome = execute(cli.main, req, Path(args.tmp))
    for _ in range(SETUP_PROBES):
        after()
    p0, p1 = statistics.median(before.times), statistics.median(after.times)
    times = {"setup_s": import_s + outcome[0],
             "setup_probes": import_s / p0 + outcome[0] / ((p0 + p1) / 2)}
    return cli, req, outcome, times


def op_cost(results: list[Result], probes: list[float], cycle: int) -> float:
    """Op time in probe units: paired per request, median per cycle position, mean over positions.

    Host speed flips between modes within seconds, so each request is
    divided by the mean of the probes run just before and after it.
    Requests at one position of the workload's cycle have the same kind
    and size; the median per position resists stray slow requests, and
    the mean over positions weighs the mix as the workload defines it.
    `results[j]` is request j + 1.
    """
    by_position = defaultdict(list)
    for j, r in enumerate(results):
        ratio = (r.seconds / r.ops) / ((probes[j] + probes[j + 1]) / 2)
        by_position[(j + 1) % cycle].append(ratio)
    return statistics.fmean(statistics.median(v) for v in by_position.values())


def timed(args) -> dict:
    cli, req0, outcome, setup_times = setup(args)
    tmp = Path(args.tmp)
    first = Result(outcome[0], req0.ops, *check(req0, *outcome[1:], tmp))
    probe = Probe()
    probe()
    steal0 = steal_seconds()
    res: list[Result] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        res.append(run_checked(cli.main, request(args.workload, args.seed, len(res) + 1), tmp))
        probe()
    steal = steal_seconds() - steal0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tally = Tally([first, *res])
    ops = sum(r.ops for r in res)
    ms = [1e3 * r.seconds for r in res]
    fe, fe_n = (sum(x) for x in zip(*(r.false_entangled for r in tally.results)))
    m = {
        "ops_per_s": metric(ops / sum(r.seconds for r in res), "1/s", ops),
        "request_ms_p50": metric(statistics.median(ms), "ms", len(ms)),
        "op_cost_probe": metric(op_cost(res, probe.times, CYCLE[args.workload]), "ratio", len(res)),
        "peak_rss_mb": metric(rss_mb, "MB", 1),
        "failed_frac": metric(tally.failed / tally.attempted, "frac", tally.attempted),
        "false_entangled": metric(fe, "count", fe_n),
        "env.probe_ms_p50": metric(1e3 * statistics.median(probe.times), "ms", len(probe.times)),
    }
    if len(ms) * 5 // 100 >= TAIL_SAMPLES:
        p95 = statistics.quantiles(ms, n=100, method="inclusive")[94]
        m["request_ms_p95"] = metric(p95, "ms", len(ms))
    return {"attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems(),
            "metrics": m, "env": environment(args, probe, steal), "setup": setup_times}


def layer_metrics(passes: list[dict]) -> dict:
    """Per-layer metrics from the aggregates of traced passes over one request list.

    Counts come from the first pass; times are medians over the passes.
    """
    import tracing

    first, n = passes[0], len(passes)
    self_s = {f: statistics.median(p["functions"][f]["self_s"] for p in passes)
              for f in tracing.FUNCTIONS}
    m = {}
    for f in tracing.FUNCTIONS:
        calls = first["functions"][f]["calls"]
        m[f"{f}.calls"] = metric(calls, "count", 1)
        m[f"{f}.self_s"] = metric(self_s[f], "s", n)
        if f in tracing.INPUT_KEYS:
            distinct = first["functions"][f]["distinct"]
            m[f"{f}.useful_frac"] = metric(distinct / calls if calls else 0.0, "frac", calls)
    total = sum(self_s.values())
    for layer in tracing.LAYERS:
        share = sum(s for f, s in self_s.items() if f.startswith(layer + ".")) / total
        m[f"{layer}.self_frac"] = metric(share, "frac", n)
    for stage in tracing.STAGES:
        m[f"stage.{stage}.self_s"] = metric(
            statistics.median(p["stages"][stage] for p in passes), "s", n)
    for name, value in first["bytes"].items():
        m[name] = metric(value, "B-computed", 1)
    return m


def traced(args) -> dict:
    import tracing

    cli = import_program()
    tmp = Path(args.tmp)
    reqs = [request(args.workload, args.seed, i) for i in range(TRACED_REQUESTS[args.workload])]
    tracer = tracing.Tracer()
    probe = Probe()
    tally = Tally()

    def replay() -> float:
        busy = 0.0
        for req in reqs:
            probe()
            r = run_checked(cli.main, req, tmp)
            tally.results.append(r)
            busy += r.seconds
        return busy

    run_checked(cli.main, reqs[0], tmp)  # warm-up, not counted
    steal0 = steal_seconds()
    plain, spans_s, passes = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        plain.append(replay())
        with tracer.installed():
            spans_s.append(replay())
        passes.append(tracing.aggregate(tracer.reset()))
    steal = steal_seconds() - steal0

    problems = []
    counts = [{f: (v["calls"], v["distinct"]) for f, v in p["functions"].items()} for p in passes]
    if any(c != counts[0] for c in counts) or any(p["bytes"] != passes[0]["bytes"] for p in passes):
        problems.append("traced counts differ between passes of the same requests")
    m = layer_metrics(passes)
    m["env.probe_ms_p50"] = metric(1e3 * statistics.median(probe.times), "ms", len(probe.times))
    m["trace.overhead_frac"] = metric(statistics.median(spans_s) / statistics.median(plain) - 1.0,
                                      "frac", len(passes))
    return {"attempted": tally.attempted, "failed": tally.failed,
            "problems": problems + tally.problems(), "metrics": m,
            "env": environment(args, probe, steal)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True, help="directory for --out files")
    parser.add_argument("--spawn-ns", type=int, default=0, help="time.time_ns() at process spawn")
    args = parser.parse_args(argv)
    os.makedirs(args.tmp, exist_ok=True)
    if args.mode == "setup":
        result = setup(args)[3]
    elif args.mode == "timed":
        result = timed(args)
    else:
        result = traced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
