"""The stacked audit engine against a per-state loop over the scalar verdicts."""
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
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
from remoments.criteria import PT_NEGATIVITY_TOL, spectrum
from remoments.linalg import SCRATCH
from remoments.states import separable_stack
from test_cli import run_cli

ALL_CRITERIA = ("v1", "v2", "v3", "realign", "ppt")
AUDIT_DIMS = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 2, 2), (4, 4), (3, 2, 2)]
PARTIES = "dims needs at least two parties of dimension >= 2"
COUNTS = "--num-states and --num-terms must be >= 1"
TWO_PARTY = "criterion v1 requires a two-party state (use v2 with --split instead)"


def set_chunk(monkeypatch, dims, num_terms, chunk):
    """Shrink the stack budget so an audit over `dims` with `num_terms` terms draws `chunk` samples per stack."""
    d = math.prod(dims)
    monkeypatch.setattr(cli, "STACK_ENTRIES", chunk * d * max(d, num_terms))
    assert cli._stack_size(d, num_terms) == chunk


def two_party_criteria(dims, criteria=ALL_CRITERIA):
    """`criteria` without v1 where `dims` has more than two parties: v1 reads a two-party state alone."""
    return tuple(c for c in criteria if c != "v1" or len(dims) == 2)


@pytest.mark.parametrize(
    "criteria, params, message, settings",
    [
        (("v1",), (1.0, math.nan), "weight nan in --params is not finite", {}),
        (("realign",), (math.inf,), "weight inf in --params is not finite", {}),
        (("v3",), (-1.0,), "weight must be nonnegative, got -1.0 (criterion v3)", {}),
        (("realign", "v2"), (0.0,), "weight must be positive, got 0.0 (criterion v2)", {}),
        (("v1", "nope"), (1.0,), "unknown criterion 'nope'; choose from ('v1', 'v2', 'v3', 'realign', 'ppt')", {}),
        # The dims, count, seed and size rules, each with the text test_audit_input_errors pins.
        (("v3",), (0.5,), PARTIES, {"dims": (2,)}),
        (("v3",), (0.5,), PARTIES, {"dims": (2, 1)}),
        (("v3",), (0.5,), "dims '9,9' give dimension 81, above the cap 64", {"dims": (9, 9)}),
        (("v3",), (0.5,), COUNTS, {"num_states": 0}),
        (("v3",), (0.5,), COUNTS, {"num_terms": 0}),
        (("v3",), (0.5,), "--seed must be >= 0, got -1", {"seed": -1}),
        (("v3",), (0.5,), "--num-terms must be at most D^2 = 16, got 17", {"num_terms": 17}),
        # Nothing, or not every criterion, would be evaluated.
        ((), (0.5,), "--criteria requires at least one criterion", {}),
        (("realign", "v3"), (), "criterion v3 requires a weight in --params", {}),
        (("v1",), (), "criterion v1 requires a weight in --params", {"dims": (2, 2, 2)}),
        # v1 reads the 1|2 realignment, which only a two-party state has; checked at v1's first cell.
        (("v1",), (0.5,), TWO_PARTY, {"dims": (2, 2, 2)}),
        (("v1", "realign"), (0.5,), TWO_PARTY, {"dims": (2, 2, 2)}),
        # A v1/v2 weight whose 8/weight overflows, as a weight whose square overflows.
        (("v1",), (1e-309,), "weight 1e-309 is too small: 8/weight overflows (criterion v1)", {}),
        (("v3", "v2"), (0.5, 4e-308), "weight 4e-308 is too small: 8/weight overflows (criterion v2)", {}),
        # Cells are checked in report order: v3's cell at -1 comes before v2's at 0.
        (("v3", "v2"), (0.0, -1.0), "weight must be nonnegative, got -1.0 (criterion v3)", {}),
    ],
)
def test_run_audit_checks_its_config_before_sampling(monkeypatch, criteria, params, message, settings):
    """Every broken audit rule raises ValueError, with the CLI's message, before any sample is drawn."""
    def no_sampling(*args):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(cli, "separable_stack", no_sampling)
    with pytest.raises(ValueError) as info:
        run_audit(AuditConfig(**{"dims": (2, 2), "num_states": 3, **settings}, criteria=criteria, params=params))
    assert type(info.value) is ValueError and str(info.value) == message


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
            if c == "v1":
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


@pytest.mark.parametrize("dims", AUDIT_DIMS)
@pytest.mark.parametrize("num_terms", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 4242])
def test_matches_scalar_loop(dims, num_terms, seed):
    cfg = AuditConfig(
        dims=dims, num_states=6 if len(dims) == 4 else 12, num_terms=num_terms, seed=seed,
        criteria=two_party_criteria(dims), params=(0.01, 0.5, 1.0, 5.0, 30.0),
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
        criteria=two_party_criteria((2, 2, 2)), params=(0.5, 5.0),
    )
    whole = run_audit(cfg)
    set_chunk(monkeypatch, cfg.dims, cfg.num_terms, 4)
    chunked = run_audit(cfg)
    assert_same_report(chunked, whole)
    assert_same_report(chunked, reference_audit(cfg))


@pytest.mark.parametrize(
    "dims, per_chunk",
    [
        ((2, 2), [1, "1|2"]),  # party 2 reads party 1's spectrum
        ((2, 2, 2), [1, 2, 3, *map(str, enumerate_splits(3))]),
    ],
)
@pytest.mark.parametrize("chunks", [1, 2])
def test_one_spectrum_per_target_and_chunk(monkeypatch, dims, per_chunk, chunks):
    """Each chunk takes exactly one spectrum per distinct split or party of the plan: the parties, then
    the splits, each in report order."""
    calls = []

    def counting_spectrum(stack, stack_dims, target, *rest, **kwargs):
        calls.append(target if isinstance(target, int) else str(target))
        return spectrum(stack, stack_dims, target, *rest, **kwargs)

    monkeypatch.setattr(cli, "spectrum", counting_spectrum)
    set_chunk(monkeypatch, dims, 2, 8 // chunks)
    run_audit(AuditConfig(dims=dims, num_states=8, num_terms=2, criteria=("realign", "v3", "ppt")))
    assert calls == per_chunk * chunks


def spectrum_arrays(sp):
    """Every array of a Spectrum, its admissible bounds' included."""
    return [a for a in (sp.values, sp.t1, sp.t2, *(vars(sp.bounds).values() if sp.bounds else ())) if a is not None]


@pytest.mark.parametrize("dims", AUDIT_DIMS)
def test_shared_scratch_spectra_equal_fresh_ones_bit_for_bit(dims):
    """Spectra of every split and party taken in turn through the thread's scratch equal, bit for bit,
    those taken after its buffers are cleared, and none of their arrays shares memory with a buffer."""
    stack = separable_stack(dims, 2, range(12))
    targets = [*enumerate_splits(len(dims)), *range(1, len(dims) + 1)]
    shared = [spectrum(stack, dims, targets[0], ALL_CRITERIA)()]
    first = [a.tobytes() for a in spectrum_arrays(shared[0])]
    solves = [spectrum(stack, dims, target, ALL_CRITERIA) for target in targets[1:]]  # every take before a solve
    shared += [solve() for solve in solves]
    assert [a.tobytes() for a in spectrum_arrays(shared[0])] == first  # no later target wrote into them
    assert set(SCRATCH.buffers) == {"conj", "sym", "abs"}
    for target, sp in zip(targets, shared):
        for a in spectrum_arrays(sp):
            assert not any(np.shares_memory(a, buf) for buf in SCRATCH.buffers.values())
        SCRATCH.buffers.clear()
        fresh = spectrum(stack, dims, target, ALL_CRITERIA)()
        assert [a.tobytes() for a in spectrum_arrays(sp)] == [a.tobytes() for a in spectrum_arrays(fresh)]


@pytest.mark.parametrize("dims", AUDIT_DIMS)
def test_scratch_allocates_only_in_the_first_chunk(monkeypatch, allocations, dims):
    """An audit run, separable_stack's validation included, allocates no buffer after its first chunk."""
    label, made = allocations
    chunks = []

    def counting_stack(*args):
        chunks.append(args)
        label[0] = len(chunks)
        return separable_stack(*args)

    monkeypatch.setattr(cli, "separable_stack", counting_stack)
    set_chunk(monkeypatch, dims, 2, 4)
    cfg = AuditConfig(dims=dims, num_states=12, num_terms=2, criteria=two_party_criteria(dims), params=(0.5, 5.0))
    report = run_audit(cfg)
    assert len(chunks) == 3
    assert {name for _, name in made} == {"conj", "sym", "abs"}
    assert all(chunk == 1 for chunk, _ in made)
    assert_same_report(report, reference_audit(cfg))


def test_second_audit_allocates_no_buffer(allocations):
    """The thread keeps its buffers from one audit run to the next of the same shape."""
    _, made = allocations
    cfg = AuditConfig(dims=(2, 2, 2, 2), num_states=40, criteria=two_party_criteria((2, 2, 2, 2)))
    first = run_audit(cfg)
    assert made
    made.clear()
    assert_same_report(run_audit(cfg), first)
    assert made == []


def test_concurrent_audits_give_the_serial_reports():
    """Four threads, two per audit, switching every microsecond, each report what a serial run reports."""
    configs = [AuditConfig(dims=(2, 2, 2, 2), num_states=24, criteria=two_party_criteria((2, 2, 2, 2))),
               AuditConfig(dims=(3, 3), num_states=40, num_terms=4, criteria=ALL_CRITERIA, seed=5)]
    want = [run_audit(cfg) for cfg in configs]
    got = [None] * 4

    def run(k):
        got[k] = run_audit(configs[k % 2])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [[repr(e) for e in report] for report in got] == [[repr(e) for e in want[k % 2]] for k in range(4)]


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
    set_chunk(monkeypatch, cfg.dims, cfg.num_terms, chunk)
    (entry,) = run_audit(cfg)
    assert entry.worst_statistic == max(stats)
    assert entry.worst_seed == cfg.seed + tied[0]
    assert_same_report([entry], reference_audit(cfg))


@pytest.mark.parametrize("criterion, chunks, want", [
    ("v2", [[math.nan, math.nan]], (0, 0, math.nan, None)),  # an all-NaN chunk adds no count and no worst
    ("v2", [[math.nan, math.nan], [math.nan, 0.9], [math.nan]], (1, 0, 0.9, 103)),
    ("v1", [[math.nan, 1.2, math.nan, 0.7]], (2, 1, 1.2, 101)),  # NaN beside finite statistics
    ("v3", [[0.5, 0.8, 0.8], [0.8, 0.3]], (5, 0, 0.8, 101)),  # ties within and across calls keep the first seed
    ("realign", [[1.0, math.inf], [math.inf, math.nan]], (3, 2, math.inf, 101)),
    ("ppt", [[0.0, -math.inf], [-math.inf, 0.1]], (4, 2, -math.inf, 101)),
])
def test_tally(criterion, chunks, want):
    """`chunks` tallied in turn on consecutive seeds from 100: (evaluated, violations, worst statistic, its seed)."""
    entry, start = AuditEntry(criterion, None, None), 100
    for stats in chunks:
        entry.tally(np.array(stats), range(start, start + len(stats)))
        start += len(stats)
    got = (entry.evaluated, entry.violations, entry.worst_statistic, entry.worst_seed)
    assert repr(got) == repr(want)


def test_many_terms_shrink_the_chunk(monkeypatch):
    """With num_terms above D the chunk shrinks, so the sampler's kets stay within STACK_ENTRIES.

    The report equals the one-sample-per-chunk report, and the audit's
    allocation peak is several times below that of sampling all its states
    as one stack, as the audit did with a fixed chunk.
    """
    cfg = AuditConfig(
        dims=(4, 4), num_states=128, num_terms=256, seed=3, criteria=ALL_CRITERIA, params=(0.5,),
    )
    tracemalloc.start()
    try:
        report = run_audit(cfg)
        audit_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        separable_stack(cfg.dims, cfg.num_terms, range(cfg.seed, cfg.seed + cfg.num_states))
        whole_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit_peak * 3 < whole_peak
    set_chunk(monkeypatch, cfg.dims, cfg.num_terms, 1)
    assert_same_report(report, run_audit(cfg))


def per_party_min_eigenvalues(matrices, dims):
    """One eigensolve per party, as two-party audits made before they shared one."""
    return [spectrum(matrices, dims, p)().values[:, 0] for p in range(1, len(dims) + 1)]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
@pytest.mark.parametrize("num_terms", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 4242])
def test_two_party_ppt_output_equals_per_party_eigensolves(tmp_path, dims, num_terms, seed):
    """One eigensolve serves both parties: each ppt cell is its own party's eigensolve, bit for bit."""
    argv = ["audit", "--dims", ",".join(map(str, dims)), "--num-states", "12",
            "--num-terms", str(num_terms), "--seed", str(seed),
            "--criteria", ",".join(ALL_CRITERIA), "--params", "0.01,0.5,1,5,30"]
    code, out, err = run_cli(*argv, "--out", str(tmp_path / "audit.json"))
    assert (code, err) == (0, "")
    entries = json.loads((tmp_path / "audit.json").read_text())["entries"]
    stack = separable_stack(dims, num_terms, range(seed, seed + 12))
    for party, mins in enumerate(per_party_min_eigenvalues(stack, dims), 1):
        i = int(mins.argmin())
        want = {"criterion": "ppt", "parameter": float(party), "split": None, "evaluated": 12,
                "violations": int((mins < -PT_NEGATIVITY_TOL).sum()),
                "worst_statistic": float(mins[i]), "worst_seed": seed + i}
        assert [e for e in entries if e["criterion"] == "ppt" and e["parameter"] == party] == [want]
        row = (f"{'ppt':<9} {cli._fmt(party):>8} {'-':<6} {12:>9} {want['violations']:>10} "
               f"{cli._fmt(mins[i]):>18} {seed + i:>10}\n")
        assert row in out
    first, second = per_party_min_eigenvalues(separable_stack(dims, num_terms, range(seed, seed + 200)), dims)
    assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize(
    "repeated, once",
    [
        (("--criteria", "v3,v3", "--params", "1"), ("--criteria", "v3", "--params", "1")),
        (("--criteria", "v3", "--params", "1,1.0"), ("--criteria", "v3", "--params", "1")),
        (("--criteria", "ppt,ppt"), ("--criteria", "ppt")),
        (("--criteria", "v1,ppt,v2,v1,realign,ppt", "--params", "5,0.5,5,1,0.5"),
         ("--criteria", "v1,ppt,v2,realign", "--params", "5,0.5,1")),
    ],
)
@pytest.mark.parametrize("dims", ["2,2", "2,2,2"])
def test_repeated_criteria_and_weights_count_once(tmp_path, repeated, once, dims):
    """Entries equal those of the list without repeats; the config keeps the lists as given."""
    base = ("audit", "--dims", dims, "--num-states", "10", "--num-terms", "2")
    argvs = [dict(zip(argv[::2], argv[1::2])) for argv in (repeated, once)]
    for flags in argvs:
        flags["--criteria"] = ",".join(two_party_criteria(dims.split(","), flags["--criteria"].split(",")))
    reports = []
    for name, flags in zip(("repeated", "once"), argvs):
        code, out, err = run_cli(*base, *itertools.chain(*flags.items()), "--out", str(tmp_path / f"{name}.json"))
        assert (code, err) == (0, "")
        reports.append((out, json.loads((tmp_path / f"{name}.json").read_text())))
    (out_repeated, got), (out_once, want) = reports
    assert got["entries"] == want["entries"]
    assert all(e["evaluated"] <= 10 for e in got["entries"])
    assert out_repeated.splitlines()[1:] == out_once.splitlines()[1:]
    flags = argvs[0]
    assert got["config"]["criteria"] == flags["--criteria"].split(",")
    if "--params" in flags:
        assert got["config"]["params"] == [float(x) for x in flags["--params"].split(",")]


# The solver thread: audits queue their eigensolves on linalg's one worker thread.

@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("chunk", [3, 8])
@pytest.mark.parametrize("num_terms", [1, 3])
def test_queued_solves_give_the_scalar_loop_bit_for_bit(monkeypatch, dims, chunk, num_terms):
    """Every field of every entry, the worst statistic's bits included, equals the per-state loop's."""
    cfg = AuditConfig(dims=dims, num_states=17, num_terms=num_terms, seed=11,
                      criteria=two_party_criteria(dims), params=(0.01, 0.5, 1.0, 5.0, 30.0))
    set_chunk(monkeypatch, dims, num_terms, chunk)
    assert [repr(vars(e)) for e in run_audit(cfg)] == [repr(vars(e)) for e in reference_audit(cfg)]


@pytest.mark.parametrize("failing", [{1}, {3}, {"last"}, {1, 3, "last"}])
def test_a_failed_solve_exits_as_before(monkeypatch, failing):
    """np.linalg.eigvalsh raising on the solver thread ends the audit with exit 2 and numpy's message,
    as a solve on the caller did; the thread keeps serving the next audit."""
    argv = ("audit", "--dims", "2,2,2", "--num-states", "20", "--criteria", "realign,v3,ppt")
    set_chunk(monkeypatch, (2, 2, 2), AuditConfig.num_terms, 8)
    code, want, err = run_cli(*argv)
    assert (code, err) == (0, "")
    solve, solves = np.linalg.eigvalsh, []

    def counted(h):
        solves.append(None)
        return solve(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert run_cli(*argv) == (0, want, "")
    last = len(solves)
    assert last == 9 * 3  # 6 realign splits and 3 parties, in chunks of 8, 8 and 4 states
    failing = {last if k == "last" else k for k in failing}

    def failing_solve(h):
        solves.append(None)
        if len(solves) - last in failing:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_solve)
    assert run_cli(*argv) == (2, "", "error: Eigenvalues did not converge\n")
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    assert run_cli(*argv) == (0, want, "")


@pytest.mark.parametrize("argv", [
    ("analyze", "--family", "noisy_ghz4", "--param", "0.5"),
    ("sweep", "--family", "noisy_ghz4", "--range", "0:1:0.25"),
    ("threshold", "--family", "noisy_ghz4", "--bracket", "0:1"),
])
@pytest.mark.parametrize("flags", [("--criterion", "realign", "--split", "1|2"), ("--criterion", "ppt", "--party", "1")])
def test_evaluate_solves_inline(monkeypatch, argv, flags):
    """analyze, sweep and threshold solve on the calling thread and start none."""
    solve, threads = np.linalg.eigvalsh, []

    def recorded(h):
        threads.append(threading.get_ident())
        return solve(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    before = threading.active_count()
    code, _, err = run_cli(*argv, *flags)
    assert (code, err) == (0, "")
    assert threading.active_count() == before
    assert threads and set(threads) == {threading.get_ident()}


def test_one_solver_thread_per_process():
    """In a new process, analyze, sweep and threshold leave one thread; ten audits leave two."""
    script = """if True:
        import contextlib, io, threading
        from remoments.cli import main
        realign, ppt = ("--criterion", "realign", "--split", "1|2"), ("--criterion", "ppt", "--party", "1")
        with contextlib.redirect_stdout(io.StringIO()):
            for flags in (realign, ppt):
                assert main(["analyze", "--family", "noisy_ghz4", "--param", "0.5", *flags]) == 0
                assert main(["sweep", "--family", "noisy_ghz4", "--range", "0:1:0.25", *flags]) == 0
                assert main(["threshold", "--family", "noisy_ghz4", "--bracket", "0:1", *flags]) == 0
            counts = [threading.active_count()]
            for seed in range(10):
                assert main(["audit", "--dims", "2,2,2,2", "--num-states", "8", "--seed", str(seed)]) == 0
            counts.append(threading.active_count())
        print(counts)
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[1, 2]\n", "")


def test_moment_only_audits_start_no_solver_thread():
    """In a new process, audits whose criteria never eigensolve (criteria.eigensolves) leave one thread;
    the first audit with realign starts the solver."""
    script = """if True:
        import contextlib, io, threading
        from remoments.cli import main
        counts = []
        with contextlib.redirect_stdout(io.StringIO()):
            for criteria in ("v3", "v1,v2,v3", "realign"):
                assert main(["audit", "--dims", "2,2", "--num-states", "8", "--criteria", criteria]) == 0
                counts.append(threading.active_count())
        print(counts)
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[1, 1, 2]\n", "")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="os.fork after threads is checked on Linux")
def test_a_forked_child_starts_its_own_solver():
    """A child forked after an audit has no solver thread; its first audit starts one and reports as the parent."""
    first = AuditConfig(dims=(2, 2, 2, 2), num_states=8, seed=1)
    second = AuditConfig(dims=(3, 3), num_states=30, criteria=ALL_CRITERIA, seed=2)
    run_audit(first)
    want = [repr(vars(e)) for e in run_audit(second)]
    read, write = os.pipe()
    with warnings.catch_warnings():  # Python 3.12+ warns on fork in a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: report, then leave without running the parent's test session
        code = 1
        try:
            os.close(read)
            signal.alarm(60)  # a solve queued to no thread would wait forever
            report = [repr(vars(e)) for e in run_audit(second)]
            os.write(write, json.dumps([threading.active_count(), report]).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        got = fh.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert json.loads(got) == [2, want]
