"""The stacked audit engine against a per-state loop over the scalar verdicts."""
import math

import pytest

from remoments import (
    ENTANGLED,
    enumerate_splits,
    ppt_verdict,
    realignment_norm_verdict,
    sample_separable,
    verdict_v1,
    verdict_v2,
    verdict_v3,
)
from remoments import cli
from remoments.cli import AuditConfig, AuditEntry, run_audit
from remoments.criteria import _min_eigenvalues
from remoments.states import separable_stack
from test_cli import run_cli

ALL_CRITERIA = ("v1", "v2", "v3", "realign", "ppt")


def reference_audit(cfg):
    """One state at a time, every cell through the public scalar verdicts."""
    n = len(cfg.dims)
    splits = enumerate_splits(n)
    entries = {}
    for i in range(cfg.num_states):
        seed = cfg.seed + i
        dm = sample_separable(cfg.dims, cfg.num_terms, seed)
        cells = []
        for c in cfg.criteria:
            if c == "v1" and n == 2:
                cells += [((c, a, "1|2"), verdict_v1(dm, a)) for a in cfg.params]
            elif c == "v2":
                cells += [((c, u, str(s)), verdict_v2(dm, s, u)) for s in splits for u in cfg.params]
            elif c == "v3":
                cells += [((c, v, str(s)), verdict_v3(dm, s, v)) for s in splits for v in cfg.params]
            elif c == "realign":
                cells += [((c, None, str(s)), realignment_norm_verdict(dm, s)) for s in splits]
            elif c == "ppt":
                cells += [((c, float(p), None), ppt_verdict(dm, p)) for p in range(1, n + 1)]
        for key, verdict in cells:
            ent = entries.setdefault(key, AuditEntry(*key))
            if math.isnan(verdict.statistic):
                continue
            ent.evaluated += 1
            ent.violations += verdict.outcome == ENTANGLED
            stat, worst = verdict.statistic, ent.worst_statistic
            if math.isnan(worst) or (stat < worst if key[0] == "ppt" else stat > worst):
                ent.worst_statistic, ent.worst_seed = stat, seed
    return list(entries.values())


def assert_same_report(got, want):
    def exact(e):
        return (e.criterion, e.parameter, e.split, e.evaluated, e.violations, e.worst_seed)

    assert [exact(e) for e in got] == [exact(e) for e in want]
    for g, w in zip(got, want):
        if math.isnan(w.worst_statistic):
            assert math.isnan(g.worst_statistic)
        else:
            assert abs(g.worst_statistic - w.worst_statistic) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 2, 2), (4, 4), (3, 2, 2)])
@pytest.mark.parametrize("num_terms", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 4242])
def test_matches_scalar_loop(dims, num_terms, seed):
    cfg = AuditConfig(
        dims=dims, num_states=6 if len(dims) == 4 else 12, num_terms=num_terms, seed=seed,
        criteria=ALL_CRITERIA, params=(0.01, 0.5, 1.0, 5.0, 30.0),
    )
    assert_same_report(run_audit(cfg), reference_audit(cfg))


def test_zero_weight_and_criterion_order():
    cfg = AuditConfig(
        dims=(2, 3), num_states=10, num_terms=1, seed=9,
        criteria=("ppt", "realign", "v3"), params=(0.0, 0.5),
    )
    report = run_audit(cfg)
    assert [e.criterion for e in report] == ["ppt", "ppt", "realign", "v3", "v3"]
    assert_same_report(report, reference_audit(cfg))


def test_chunk_boundaries(monkeypatch):
    """Stacks split across several chunks tally exactly like one stack."""
    cfg = AuditConfig(
        dims=(2, 2, 2), num_states=11, num_terms=2, seed=5,
        criteria=ALL_CRITERIA, params=(0.5, 5.0),
    )
    whole = run_audit(cfg)
    monkeypatch.setattr(cli, "AUDIT_CHUNK", 4)
    chunked = run_audit(cfg)
    assert_same_report(chunked, whole)
    assert_same_report(chunked, reference_audit(cfg))


@pytest.mark.parametrize("chunk", [4, 5])
def test_ties_across_chunks_keep_the_first_seed(monkeypatch, chunk):
    """Pure products tie exactly on v1; the worst seed is the first sample to reach the maximum.

    With 4-sample chunks the first tied sample ends a chunk; with 5 it
    shares its chunk with the next tied one.
    """
    cfg = AuditConfig(
        dims=(2, 2), num_states=12, num_terms=1, seed=14, criteria=("v1",), params=(0.5,),
    )
    stats = [verdict_v1(sample_separable(cfg.dims, 1, cfg.seed + i), 0.5).statistic for i in range(12)]
    tied = [i for i, x in enumerate(stats) if x == max(stats)]
    assert len({i // chunk for i in tied}) >= 2  # the tie spans a chunk boundary
    monkeypatch.setattr(cli, "AUDIT_CHUNK", chunk)
    (entry,) = run_audit(cfg)
    assert entry.worst_statistic == max(stats)
    assert entry.worst_seed == cfg.seed + tied[0]
    assert_same_report([entry], reference_audit(cfg))


def per_party_min_eigenvalues(matrices, dims):
    """The eigensolve per party that two-party audits used to make."""
    return [_min_eigenvalues(matrices, dims, p) for p in range(1, len(dims) + 1)]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
@pytest.mark.parametrize("num_terms", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 4242])
def test_two_party_ppt_output_equals_per_party_eigensolves(
    tmp_path, monkeypatch, dims, num_terms, seed
):
    """One eigensolve serves both parties: stdout and --out bytes equal the per-party run."""
    argv = ["audit", "--dims", ",".join(map(str, dims)), "--num-states", "12",
            "--num-terms", str(num_terms), "--seed", str(seed),
            "--criteria", ",".join(ALL_CRITERIA), "--params", "0.01,0.5,1,5,30"]
    shared = run_cli(*argv, "--out", str(tmp_path / "shared.json"))
    monkeypatch.setattr(cli, "_party_min_eigenvalues", per_party_min_eigenvalues)
    per_party = run_cli(*argv, "--out", str(tmp_path / "per_party.json"))
    assert shared[0] == 0 and shared == per_party
    assert (tmp_path / "shared.json").read_bytes() == (tmp_path / "per_party.json").read_bytes()
    stack = separable_stack(dims, num_terms, range(seed, seed + 200))
    first, second = per_party_min_eigenvalues(stack, dims)
    assert first.tobytes() == second.tobytes()
