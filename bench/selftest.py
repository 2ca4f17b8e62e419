"""Tests of the benchmark itself (not of the program).

    python3 -m pytest -q bench/selftest.py

Kept out of the repository's default test collection on purpose: the
traced-count test replays real audit requests and takes a few seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import TRACED_REQUESTS, WORKLOADS, request  # noqa: E402


def span(name, parent, t0, t1, t2, t3):
    return (name, parent, t0, t1, t2, t3, None, 0)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        span("cli.main", -1, 0.0, 0.0, 10.0, 10.0),
        # child whose wrapper spent 0.5 s hashing on each side of the call
        span("cli.run_audit", 0, 1.0, 1.5, 3.0, 3.5),
        span("realign.moments", 0, 5.0, 5.0, 8.0, 8.0),
        span("linalg.singular_values", 2, 6.0, 6.0, 7.0, 7.0),
        # overlaps the previous sibling: the union counts [5, 9] once
        span("criteria.v3", 0, 7.5, 7.5, 9.0, 9.0),
    ]
    assert tracing.self_times(spans) == [10.0 - 2.5 - 4.0, 1.5, 2.0, 1.0, 1.5]
    agg = tracing.aggregate(spans)
    assert agg["functions"]["cli.main"] == {"calls": 1, "self_s": 3.5, "distinct": 0}
    assert agg["stages"]["frontend"] == 3.5 + 1.5
    assert agg["stages"]["spectrum"] == 2.0 + 1.0


def test_covered_clips_to_the_parent_interval():
    assert tracing.covered([(-1.0, 2.0), (1.0, 3.0), (4.0, 9.0)], 0.0, 5.0) == 4.0
    assert tracing.covered([], 0.0, 5.0) == 0.0


def _fake_main(csv: bytes, code: int = 0):
    def main(argv):
        Path(argv[argv.index("--out") + 1]).write_bytes(csv)
        return code
    return main


def test_mutated_csv_counts_as_a_failed_op(tmp_path):
    req = request("curves", 1, 0)
    good = (reference.REF_DIR / req.expect["ref"]).read_bytes()
    assert worker.run_checked(_fake_main(good), req, tmp_path).problems == []
    mutated = good.replace(b"ENTANGLED", b"INCONCLUSIVE", 1)
    assert worker.run_checked(_fake_main(mutated), req, tmp_path).problems
    assert worker.run_checked(_fake_main(good, code=2), req, tmp_path).problems
    tally = worker.Tally([worker.run_checked(_fake_main(mutated), req, tmp_path)])
    assert (tally.attempted, tally.failed) == (1, 1)


def test_op_cost_pairs_requests_with_adjacent_probes_and_weighs_cycle_positions_equally():
    # cycle 2: odd requests cost 1 probe per op, even ones 3; request 5 is a stray slow one
    results = [worker.Result(s, 10, []) for s in (20.0, 75.0, 20.0, 60.0, 200.0)]
    probes = [1.0, 3.0, 2.0, 2.0, 2.0, 2.0]
    assert worker.op_cost(results, probes, cycle=2) == (1.0 + 3.0) / 2


def test_a_different_seed_changes_the_generated_argv():
    for w in WORKLOADS:
        stream = [request(w, 1, i).argv for i in range(12)]
        assert stream == [request(w, 1, i).argv for i in range(12)]
        assert stream != [request(w, 2, i).argv for i in range(12)]


def test_audit_requests_never_share_a_state_seed():
    for w in ("audit-4q", "audit-qutrit"):
        seen = set()
        for i in range(50):
            e = request(w, 3, i).expect
            block = set(range(e["seed"], e["seed"] + e["num_states"]))
            assert not block & seen
            seen |= block


def test_oracle_reproduces_the_seed_commit_audits():
    for path in sorted(reference.REF_DIR.glob("audit_*.json")):
        payload = json.loads(path.read_text())
        assert reference.check_audit(payload, payload["config"]) == [], path.name


def test_oracle_flags_a_changed_v2_violation_count():
    payload = json.loads((reference.REF_DIR / "audit_qutrit.json").read_text())
    cell = next(e for e in payload["entries"] if e["criterion"] == "v2")
    cell["violations"] += 1
    assert reference.check_audit(payload, payload["config"])


def test_traced_counts_on_audit_4q_repeat_exactly(tmp_path):
    cli = worker.import_program()
    reqs = [request("audit-4q", 5, i) for i in range(TRACED_REQUESTS["audit-4q"])]
    originals = {name: getattr(cli, name) for name in tracing.TRACED["cli"]}
    tracer = tracing.Tracer()
    passes = []
    for _ in range(2):
        with tracer.installed():
            assert all(not r.problems for r in (worker.run_checked(cli.main, q, tmp_path) for q in reqs))
        passes.append(tracing.aggregate(tracer.reset()))
    assert {n: getattr(cli, n) for n in originals} == originals  # wrappers removed
    counts = [{f: (v["calls"], v["distinct"]) for f, v in p["functions"].items()} for p in passes]
    assert counts[0] == counts[1]
    assert passes[0]["bytes"] == passes[1]["bytes"]
    moments = passes[0]["functions"]["realign.moments"]
    # 25 splits x 4 weights per state; realign cells reuse the same 25 matrices
    assert moments["calls"] == 100 * sum(q.ops for q in reqs)
    assert moments["distinct"] * 4 == moments["calls"]
    metrics = worker.layer_metrics(passes)
    assert metrics["realign.moments.useful_frac"]["value"] == 0.25
    assert metrics["linalg.singular_values.useful_frac"]["value"] == 0.2
    listed = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    produced = set(metrics) | {"env.probe_ms_p50", "trace.overhead_frac"}
    assert listed <= produced


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curves", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
