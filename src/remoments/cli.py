"""Command-line front end.

Subcommands:
  analyze    evaluate one criterion on one state (family or JSON file)
  sweep      evaluate a criterion across a family parameter grid -> CSV
  threshold  bisect a family parameter bracket for a statistic crossing
  audit      measure criterion behavior on random separable states

Exit codes: 0 success (INCONCLUSIVE is a success); :func:`main` maps an error by its
type alone: 3 for a DomainError or StateValidationError, 2 for any other ValueError.
"""
from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .criteria import (
    CRITERIA,
    ENTANGLED,
    INCONCLUSIVE,
    CriterionVerdict,
    Evaluation,
    check_request,
    criterion_row,
    discriminant,
    eigensolves,
    entangled,
    evaluate,
    json_safe,
    spectrum,
    verdict,
)
from .linalg import MAX_KRON_DIM, later
from .realign import RealignSpec, enumerate_splits
from .states import (
    FAMILIES,
    DensityMatrix,
    DomainError,
    StateValidationError,
    family_dims,
    family_stack,
    load_state,
    separable_stack,
    validate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3

BISECTION_TOL = 1e-6
# Bisection levels whose every midpoint the first threshold round evaluates, whichever
# way the bisection turns: points on both sides of the crossing, within 1/8 of the
# bracket, for the predictor that alone picks the points of later rounds.
_TREE_DEPTH = 3
_PREDICTOR_POINTS = 7  # known offsets nearest the bracket, interpolated
_NEWTON_STEPS = 12  # on that polynomial

# Matrix entries of one stack built, validated and evaluated together: sweep points, threshold
# round points or audit samples (_stack_size).  A stack costs a fixed time besides its entries,
# but its temporaries grow with them; 64 points of the 16 x 16 families is the smallest budget
# that keeps both benchmark audits (50 samples on 4 qubits, 200 on 3 x 3) in one stack.
STACK_ENTRIES = 64 * 16 * 16

_IN_FLIGHT = 8  # the most audit spectra taken and not yet read, so the most eigensolves queued at once

# A sweep grid with more points than this is rejected before any is built.
MAX_GRID_POINTS = 100_000


class SweepRow(NamedTuple):
    """One CSV row of a parameter sweep (a tuple: a sweep builds one per grid point)."""

    state_param: float
    criterion: str
    criterion_param: float | None
    statistic: float
    admissible_low: float | None
    admissible_high: float | None
    outcome: str


SWEEP_HEADER = SweepRow._fields


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def _build_state(args: argparse.Namespace, request: tuple) -> DensityMatrix:
    """The --family/--param or --state state, built or validated once its dims pass :func:`check_request`."""
    if args.state is None:
        check_request(family_dims(args.family), *request)
        return FAMILIES[args.family](args.param)
    try:
        dm = load_state(args.state)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ValueError(f"cannot read state file {args.state!r}: {exc}") from exc
    check_request(dm.dims, *request)
    return validate(dm)


def _stack_size(d: int, width: int) -> int:
    """How many D x D matrices, at least 1, one stack holds where each also takes `width` D-vectors
    (D for a family point, num_terms for an audit sample's kets)."""
    return max(1, STACK_ENTRIES // (d * max(d, width)))


def _stack_points(family: str) -> int:
    """The most points of `family` one stack holds (:func:`_stack_size`); ValueError for an unknown family."""
    d = math.prod(family_dims(family))
    return _stack_size(d, d)


def _request(args: argparse.Namespace) -> tuple[str, float | None, RealignSpec | None, int | None]:
    """A parsed command's (criterion, weight, spec, party) for :func:`evaluate`: the weight of the row's
    own flag, the split parsed (ValueError where it does not parse) only where the row reads one."""
    row = criterion_row(args.criterion)
    spec = RealignSpec.parse(args.split) if row.reads == "split" and args.split is not None else None
    return args.criterion, getattr(args, row.flag) if row.flag else None, spec, args.party


def evaluate_criterion(
    dm: DensityMatrix, criterion: str, weight: float | None = None,
    spec: RealignSpec | None = None, party: int | None = None,
) -> tuple[CriterionVerdict, Evaluation]:
    """One criterion's verdict on one state, :func:`evaluate` with N = 1, beside the evaluation:
    callers reporting T1/T2 take the spectrum only once."""
    ev = evaluate(np.asarray(dm.matrix)[None], dm.dims, criterion, weight, spec, party)
    return verdict(ev), ev


def _family_evaluation(family: str, xs: list[float], *request) -> Evaluation:
    """Family members at `xs` built as one stack and evaluated together on :func:`evaluate`'s
    (criterion, weight, spec, party) `request`, all or nothing."""
    dims, matrices = family_stack(family, xs)
    return evaluate(matrices, dims, *request)


def _format_admissible(verdict: CriterionVerdict) -> str:
    parts = []
    for iv in verdict.admissible.intervals:
        left = "[" if iv.lo_closed else "("
        right = "]" if iv.hi_closed else ")"
        hi = "inf" if math.isinf(iv.hi) else _fmt(iv.hi)
        parts.append(f"{left}{_fmt(iv.lo)}, {hi}{right}")
    return " U ".join(parts)


def _write_out(path: str, write) -> None:
    """Call `write` on `path` opened for text; a path that cannot be written is a ValueError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def cmd_analyze(args: argparse.Namespace) -> int:
    if (args.state is None) == (args.param is None):  # --param goes with --family alone
        raise ValueError("--family requires --param" if args.state is None else "--param requires --family")
    request = _request(args)
    dm = _build_state(args, request)
    result, ev = evaluate_criterion(dm, *request)
    row = CRITERIA[args.criterion]

    if args.family is not None:
        state_label = f"{args.family}({_fmt(args.param)})"
    else:
        state_label = args.state
    lines = [
        ("state", state_label),
        ("dims", "x".join(str(d) for d in dm.dims)),
        ("criterion", result.criterion),
    ]
    if result.parameter is not None:
        lines.append(("parameter", _fmt(result.parameter)))
    if args.split is not None and row.reads == "split":
        lines.append(("split", args.split))
    lines.append(("statistic", _fmt(result.statistic)))
    lines.append(("threshold", _fmt(result.threshold)))
    lines.append(("outcome", result.outcome))
    if row.flag:
        lines += [("T1", _fmt(ev.t1[0])), ("T2", _fmt(ev.t2[0]))]
    if result.admissible is not None:
        lines.append(("discriminant", _fmt(result.admissible.discriminant)))
        lines.append(("admissible", _format_admissible(result)))
    if result.note:
        lines.append(("note", result.note))
    width = max(len(k) for k, _ in lines) + 1
    for key, value in lines:
        print(f"{key + ':':<{width}} {value}")

    if args.out:
        payload = result.to_dict()
        payload["dims"] = [int(d) for d in dm.dims]
        payload["state"] = (
            {"family": args.family, "param": args.param}
            if args.family is not None
            else {"file": args.state}
        )
        payload["split"] = args.split if row.reads == "split" else None
        payload["party"] = args.party if row.reads == "party" else None
        payload["moments"] = {"t1": float(ev.t1[0]), "t2": float(ev.t2[0])} if row.flag else None
        payload["discriminant"] = float(discriminant(ev.t1, ev.t2)[0]) if row.flag else None
        _write_out(args.out, lambda fh: fh.write(json.dumps(payload, indent=2) + "\n"))
    return EXIT_OK


def _parse_floats(text: str, what: str, names: tuple[str, ...]) -> list[float]:
    """The finite numbers of a colon-separated `what` like "LO:HI", or ValueError."""
    parts, form = text.split(":"), ":".join(names)
    if len(parts) != len(names):
        raise ValueError(f"{what} {text!r} must be {form}")
    try:
        values = [float(x) for x in parts]
    except ValueError as exc:
        raise ValueError(f"{what} {text!r} must be numeric {form}") from exc
    if not all(math.isfinite(x) for x in values):
        ends = f"{', '.join(names[:-1])} and {names[-1]}"
        raise ValueError(f"{what} {text!r} must have finite {ends}")
    return values


def _parse_grid(text: str) -> list[float]:
    lo, hi, step = _parse_floats(text, "range", ("LO", "HI", "STEP"))
    if step <= 0.0 or hi < lo:
        raise ValueError("range requires STEP > 0 and HI >= LO")
    pts = []
    k = 0
    while True:
        x = lo + k * step
        if x > hi + 1e-9 * step:
            break
        if len(pts) == MAX_GRID_POINTS:  # also ends a STEP too small to move x past LO
            raise ValueError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
        pts.append(min(x, hi))
        k += 1
    if not pts or pts[-1] < hi - 1e-9 * step:
        pts.append(hi)
    return pts


def _sweep_rows(xs: list[float], ev: Evaluation) -> list[SweepRow]:
    """One CSV row per state parameter of an evaluated stack.

    The admissible columns hold the finite positive ends, ascending, of
    (0, low_end] and [high_start, inf): a finite high_start comes only with
    a finite positive low_end, the two roots of one quadratic, and neither
    column is filled when every weight is admissible (both ends inf).
    """
    lows = highs = [None] * len(xs)
    if ev.bounds is not None:
        lows = [x if 0.0 < x < math.inf else None for x in ev.bounds.low_end.tolist()]
        highs = [x if x < math.inf else None for x in ev.bounds.high_start.tolist()]
    flagged = entangled(ev.criterion, ev.statistic).tolist()
    outcomes = [ENTANGLED if e else INCONCLUSIVE for e in flagged]
    return [
        SweepRow(x, ev.criterion, ev.parameter, stat, lo, hi, outcome)
        for x, stat, lo, hi, outcome in zip(xs, ev.statistic.tolist(), lows, highs, outcomes)
    ]


def sweep_rows(
    family: str, grid: list[float], criterion: str, weight: float | None = None,
    spec: RealignSpec | None = None, party: int | None = None,
) -> list[SweepRow]:
    """Evaluate one criterion, with :func:`evaluate`'s weight, spec and party, across a family grid in order.

    :func:`check_request` checks the request before any state is built.  Then up to
    :func:`_stack_points` grid points are built, validated and evaluated as one stack,
    whose first point that cannot be built raises, as a point-by-point loop would.
    """
    size, request = _stack_points(family), (criterion, weight, spec, party)
    check_request(family_dims(family), *request)
    rows = []
    for start in range(0, len(grid), size):
        chunk = grid[start:start + size]
        rows += _sweep_rows(chunk, _family_evaluation(family, chunk, *request))
    return rows


def write_sweep_csv(fh, rows: list[SweepRow]) -> None:
    """Fixed header, 12-significant-digit numbers, one row per grid point.

    No field needs CSV quoting: numbers, criterion names and outcomes hold no comma, quote or newline.
    """
    fh.write("".join([
        ",".join(SWEEP_HEADER) + "\n",
        *(f"{_fmt(r.state_param)},{r.criterion},{_fmt(r.criterion_param)},{_fmt(r.statistic)},"
          f"{_fmt(r.admissible_low)},{_fmt(r.admissible_high)},{r.outcome}\n" for r in rows),
    ]))


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.range_spec)
    rows = sweep_rows(args.family, grid, *_request(args))
    if args.out:
        _write_out(args.out, lambda fh: write_sweep_csv(fh, rows))
    else:
        write_sweep_csv(sys.stdout, rows)
    return EXIT_OK


def _mid(lo: float, hi: float) -> float:
    """The bisection's midpoint: 0.5 * (lo + hi), or 0.5 * lo + 0.5 * hi where that sum overflows."""
    total = lo + hi
    return 0.5 * total if math.isfinite(total) else 0.5 * lo + 0.5 * hi


def _walk(lo: float, hi: float, right, steps: float) -> tuple[list[float], tuple[float, float]]:
    """The midpoints of up to `steps` bisection steps from [lo, hi], and the bracket left: each step
    moves lo to `_mid(lo, hi)` where `right(lo, hi, mid)`, hi otherwise.  The walk stops when the
    bracket is no wider than BISECTION_TOL or the midpoint is not strictly inside (adjacent floats).
    """
    mids: list[float] = []
    while len(mids) < steps and hi - lo > BISECTION_TOL and lo < (mid := _mid(lo, hi)) < hi:
        mids.append(mid)
        lo, hi = (mid, hi) if right(lo, hi, mid) else (lo, mid)
    return mids, (lo, hi)


def _midpoint_tree(lo: float, hi: float) -> list[float]:
    """Every midpoint the bisection can visit in its next _TREE_DEPTH steps from [lo, hi], in preorder:
    the walks that turn every way at their first _TREE_DEPTH - 1 steps, left first, each midpoint once."""
    tree: dict[float, None] = {}
    for turns in itertools.product((False, True), repeat=_TREE_DEPTH - 1):
        turn = iter(turns)
        tree.update(dict.fromkeys(_walk(lo, hi, lambda *_: next(turn, False), _TREE_DEPTH)[0]))
    return list(tree)


def _predicted_path(lo: float, hi: float, table: dict[float, float], size: int) -> list[float]:
    """Up to `size` midpoints the bisection visits from [lo, hi], ends on opposite sides, if it crosses where predicted.

    The prediction is a root of the polynomial, in Newton's divided-difference form, through the
    _PREDICTOR_POINTS finite offsets of `table` nearest the bracket's midpoint: _NEWTON_STEPS Newton
    steps, each clamped to [lo, hi], from the regula-falsi point of (lo, f_lo) and (hi, f_hi); a NaN
    or off-bracket result aims the path at the midpoint instead.  A path shorter than `size` ends with
    the far child of its second-to-last midpoint, where the bisection goes if it turns the other way there.
    """
    f_lo, f_hi, centre = table[lo], table[hi], _mid(lo, hi)
    guess = lo - f_lo * (hi - lo) / (f_hi - f_lo)  # finite offsets of opposite signs: f_hi != f_lo
    xs = sorted((x for x, f in table.items() if math.isfinite(f)), key=lambda x: abs(x - centre))
    xs = xs[:_PREDICTOR_POINTS]
    coef = [table[x] for x in xs]
    for k in range(1, len(xs)):  # coef[i] becomes the divided difference f[xs[0], ..., xs[i]]
        for i in range(len(xs) - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - k])
    for _ in range(_NEWTON_STEPS):
        p, dp = coef[-1], 0.0
        for c, x in zip(coef[-2::-1], xs[-2::-1]):  # Horner's rule on the Newton form, with p'
            p, dp = p * (guess - x) + c, dp * (guess - x) + p
        if not dp:
            break
        guess = min(max(guess - p / dp, lo), hi)  # NaN stays NaN
    if not lo <= guess <= hi:
        guess = centre
    path, _ = _walk(lo, hi, lambda lo, hi, mid: mid < guess, size)
    if 2 <= len(path) < size:  # the same walk turned the other way at path[-2]
        far, _ = _walk(lo, hi, lambda lo, hi, mid: (mid < guess) != (mid == path[-2]), len(path))
        path += far[len(path) - 1:]
    return path


def cmd_threshold(args: argparse.Namespace) -> int:
    lo, hi = _parse_floats(args.bracket, "bracket", ("LO", "HI"))
    if hi <= lo:
        raise ValueError("bracket requires HI > LO")
    request = _request(args)
    check_request(family_dims(args.family), *request)  # before any state is built
    size = _stack_points(args.family)
    # State parameter -> offset from the threshold; NaN where the statistic is undefined.
    table: dict[float, float] = {}

    def fetch(xs: list[float]) -> None:
        ev = _family_evaluation(args.family, xs, *request)
        table.update(zip(xs, (ev.statistic - CRITERIA[ev.criterion].threshold).tolist()))

    def offset(x: float) -> float:
        if math.isnan(value := table[x]):
            raise ValueError(
                f"statistic undefined at state parameter {_fmt(x)} "
                "(criterion parameter outside admissible range)"
            )
        return value

    # The first round evaluates as one stack LO, HI and the midpoints of the first _TREE_DEPTH
    # steps; each later round, the path predicted from every offset known by then, which starts
    # at the midpoint the bisection reads.  So LO and HI are built before either statistic is
    # read, and only they can fail to build: every midpoint of an in-domain bracket builds.  The
    # bisection below reads the table, so an undefined statistic raises only where it is visited.
    fetch([lo, hi, *_midpoint_tree(lo, hi)])
    f_lo = offset(lo)
    f_hi = offset(hi)
    # Ends on opposite sides as the walk tells sides, only one flagged (offset + threshold is the
    # statistic, exactly near the threshold): offsets within the tolerance are noise, no crossing.
    flagged = entangled(args.criterion, np.array([f_lo, f_hi]) + CRITERIA[args.criterion].threshold)
    if (f_lo < 0.0) == (f_hi < 0.0) or flagged[0] == flagged[1]:
        raise ValueError(
            f"bracket [{_fmt(lo)}, {_fmt(hi)}] does not straddle the threshold "
            f"(offsets {_fmt(f_lo)} and {_fmt(f_hi)})"
        )

    def right(lo: float, hi: float, mid: float) -> bool:
        if mid not in table:
            fetch(_predicted_path(lo, hi, table, size))
        return (offset(mid) < 0.0) == (f_lo < 0.0)  # lo only moves to LO's sign, so f_lo keeps it

    _, (lo, hi) = _walk(lo, hi, right, math.inf)
    print(_fmt(_mid(lo, hi)))
    return EXIT_OK


@dataclass(frozen=True)
class AuditConfig:
    """Settings for one audit run over seeded separable samples.

    Building one checks its own rules, not each cell's request; the first one broken raises ValueError.
    """

    dims: tuple[int, ...]
    num_states: int = 200
    num_terms: int = 3
    seed: int = 0
    criteria: tuple[str, ...] = ("realign", "v3", "ppt")
    params: tuple[float, ...] = (0.01, 0.5, 1.0, 5.0)

    def __post_init__(self) -> None:
        if len(self.dims) < 2 or any(d < 2 for d in self.dims):
            raise ValueError("dims needs at least two parties of dimension >= 2")
        if self.num_states < 1 or self.num_terms < 1:
            raise ValueError("--num-states and --num-terms must be >= 1")
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        d = math.prod(self.dims)
        if d > MAX_KRON_DIM:
            raise ValueError(f"dims {','.join(map(str, self.dims))!r} give dimension {d}, above the cap {MAX_KRON_DIM}")
        if self.num_terms > d * d:  # Caratheodory: a separable state mixes at most D^2 pure products
            raise ValueError(f"--num-terms must be at most D^2 = {d * d}, got {self.num_terms}")
        if not self.criteria:
            raise ValueError("--criteria requires at least one criterion")
        weighted = [criterion for criterion in self.criteria if criterion_row(criterion).flag]
        if weighted and not self.params:
            raise ValueError(f"criterion {weighted[0]} requires a weight in --params")
        for w in self.params:
            if not math.isfinite(w):
                raise ValueError(f"weight {w!r} in --params is not finite")


@dataclass
class AuditEntry:
    """Tally for one (criterion, parameter, split) cell of an audit."""

    criterion: str
    parameter: float | None
    split: str | None
    evaluated: int = 0
    violations: int = 0
    worst_statistic: float = float("nan")
    worst_seed: int | None = None

    def tally(self, stats: np.ndarray, seeds: range) -> None:
        """Count one stack's statistics, made from `seeds`, NaN where the weight is not admissible."""
        evaluated = np.flatnonzero(~np.isnan(stats))
        if not evaluated.size:
            return
        self.evaluated += int(evaluated.size)
        self.violations += int(np.count_nonzero(entangled(self.criterion, stats)))
        values = stats[evaluated]
        lowest = CRITERIA[self.criterion].below
        i = int(evaluated[values.argmin() if lowest else values.argmax()])
        stat = float(stats[i])
        if math.isnan(self.worst_statistic) or (
            stat < self.worst_statistic if lowest else stat > self.worst_statistic
        ):
            self.worst_statistic, self.worst_seed = stat, seeds[i]


def run_audit(cfg: AuditConfig) -> list[AuditEntry]:
    """Evaluate the requested criteria on seeded separable samples.

    Weighted criteria count only evaluations whose weight is admissible.
    A violation is an ENTANGLED verdict on a separable state; for the
    published weighted criteria on near-pure samples that is expected,
    which is exactly what this measures.  `worst_statistic` is the
    largest statistic seen (smallest for ppt), with the seed that made it.
    A criterion or weight listed twice is evaluated once.

    The plan, built before any sample, groups the cells' entries, in report order, by the
    split or party whose :func:`spectrum` they read; :func:`check_request` gives each cell's
    parameter and target, or raises for the first cell that fails.  Up to :func:`_stack_size`
    samples, fewer when `num_terms` exceeds D, are drawn and validated as one stack
    (`separable_stack`); each target, parties first, takes one spectrum per stack, which serves
    every criterion and weight reading it.  Where it :func:`eigensolves`, it is run by linalg's solver
    thread (:func:`later`) while the caller takes up to _IN_FLIGHT - 1 more; then it is read (a failed solve raises
    there) and each of its cells tallies its row's `statistic` array, ties keeping the first seed.
    """
    params = tuple(dict.fromkeys(cfg.params))
    n = len(cfg.dims)
    splits = enumerate_splits(n)
    plan, report = {}, []  # target -> the entries reading it; every entry, in report order
    for criterion in dict.fromkeys(cfg.criteria):
        row = CRITERIA[criterion]
        cells = ([(None, None, p) for p in range(1, n + 1)] if row.reads == "party" else
                 [(w, sp, None) for sp in splits for w in (params if row.flag else (None,))])
        for weight, spec, party in cells:
            _, parameter, target = check_request(cfg.dims, criterion, weight, spec, party)
            report.append(AuditEntry(criterion, parameter, None if party else str(target)))
            # For two parties, party 2 reads party 1's spectrum: rho^T2 = (rho^T1)^T, bit for bit.
            plan.setdefault(1 if party and n == 2 else target, []).append(report[-1])
    targets = sorted(plan, key=lambda target: isinstance(target, RealignSpec))  # parties first

    def taken():  # (entries, seeds, spectrum to read) of each chunk and target in turn, _IN_FLIGHT - 1 behind
        pending = collections.deque()
        chunk = _stack_size(math.prod(cfg.dims), cfg.num_terms)
        for start in range(0, cfg.num_states, chunk):
            seeds = range(cfg.seed + start, cfg.seed + min(cfg.num_states, start + chunk))
            stack = separable_stack(cfg.dims, cfg.num_terms, seeds)
            for target in targets:
                read = spectrum(stack, cfg.dims, target, cfg.criteria)
                pending.append((plan[target], seeds, later(read) if eigensolves(target, cfg.criteria) else read))
                if len(pending) == _IN_FLIGHT:
                    yield pending.popleft()
        yield from pending

    for entries, seeds, read in taken():
        sp = read()
        for entry in entries:
            entry.tally(CRITERIA[entry.criterion].statistic(sp, entry.parameter), seeds)
    return report


def cmd_audit(args: argparse.Namespace) -> int:
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError as exc:
        raise ValueError(f"dims {args.dims!r} must be comma-separated integers") from exc
    try:
        params = tuple(float(x) for x in args.params.split(",") if x.strip())
    except ValueError as exc:
        raise ValueError(f"params {args.params!r} must be comma-separated numbers") from exc
    criteria = tuple(c.strip() for c in args.criteria.split(",") if c.strip())
    cfg = AuditConfig(
        dims=dims,
        num_states=args.num_states,
        num_terms=args.num_terms,
        seed=args.seed,
        criteria=criteria,
        params=params,
    )
    report = run_audit(cfg)

    print(
        f"audit: dims={','.join(str(d) for d in dims)} states={cfg.num_states} "
        f"terms={cfg.num_terms} seed={cfg.seed}"
    )
    header = f"{'criterion':<9} {'param':>8} {'split':<6} {'evaluated':>9} {'violations':>10} {'worst_statistic':>18} {'worst_seed':>10}"
    print(header)
    for ent in report:
        param = _fmt(ent.parameter) if ent.parameter is not None else "-"
        split = ent.split if ent.split is not None else "-"
        worst = _fmt(ent.worst_statistic) if ent.evaluated else "-"
        seed = str(ent.worst_seed) if ent.worst_seed is not None else "-"
        print(
            f"{ent.criterion:<9} {param:>8} {split:<6} {ent.evaluated:>9} "
            f"{ent.violations:>10} {worst:>18} {seed:>10}"
        )

    if args.out:
        payload = json_safe({"config": vars(cfg), "entries": [vars(e) for e in report]})  # json_safe copies
        _write_out(args.out, lambda fh: fh.write(json.dumps(payload, indent=2) + "\n"))
    return EXIT_OK


def _add_state_flags(sp: argparse.ArgumentParser) -> None:
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=sorted(FAMILIES), help="state family name")
    source.add_argument("--state", help="path to a state JSON file")
    sp.add_argument("--param", type=float, help="family parameter value")


def _add_criterion_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--criterion", required=True, choices=CRITERIA)
    for name, row in CRITERIA.items():  # one weight option per weighted row
        if row.flag:
            sp.add_argument(f"--{row.flag}", type=float, help=f"weight for {name}")
    reading = {r: "/".join(name for name, row in CRITERIA.items() if row.reads == r) for r in ("split", "party")}
    sp.add_argument("--split", help=f'party grouping like "1|2" or "12|3" ({reading["split"]})')
    sp.add_argument("--party", type=int, help=f"1-based party index ({reading['party']})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process (parse_args keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="remoments",
        description="Entanglement detection from realignment moments of density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="evaluate one criterion on one state")
    sp.set_defaults(func=cmd_analyze)
    _add_state_flags(sp)
    _add_criterion_flags(sp)
    sp.add_argument("--out", help="also write the verdict as JSON to this path")

    sp = sub.add_parser("sweep", help="evaluate a criterion across a family grid -> CSV")
    sp.set_defaults(func=cmd_sweep)
    sp.add_argument("--family", required=True, choices=sorted(FAMILIES))
    sp.add_argument(
        "--range", required=True, dest="range_spec", metavar="LO:HI:STEP",
        help="closed state-parameter grid, both endpoints included",
    )
    _add_criterion_flags(sp)
    sp.add_argument("--out", help="CSV output path (default: stdout)")

    sp = sub.add_parser("threshold", help="bisect a statistic/threshold crossing")
    sp.set_defaults(func=cmd_threshold)
    sp.add_argument("--family", required=True, choices=sorted(FAMILIES))
    sp.add_argument(
        "--bracket", required=True, metavar="LO:HI",
        help="state-parameter bracket that must straddle the threshold",
    )
    _add_criterion_flags(sp)

    sp = sub.add_parser("audit", help="run criteria against random separable states")
    sp.set_defaults(func=cmd_audit)
    sp.add_argument("--dims", required=True, help='party dimensions, e.g. "2,2" or "3,3"')
    sp.add_argument("--num-states", type=int, default=AuditConfig.num_states)
    sp.add_argument("--num-terms", type=int, default=AuditConfig.num_terms)
    sp.add_argument("--seed", type=int, default=AuditConfig.seed)
    sp.add_argument(
        "--criteria", default=",".join(AuditConfig.criteria),
        help=f"comma list from {','.join(CRITERIA)}",
    )
    sp.add_argument("--params", default=",".join(map(_fmt, AuditConfig.params)), help="comma list of weights")
    sp.add_argument("--out", help="also write the report as JSON to this path")

    for sp in sub.choices.values():
        # argparse's hook for values that look like options; its default pattern has no
        # exponent or non-finite form, so "--v -1e-3", "--bracket -1:1" and "--param -inf"
        # were read as unknown options.
        sp._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, StateValidationError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # stdout was closed early.  Interpreter exit flushes it again; into the null device, that succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        code = EXIT_INPUT
    raise SystemExit(code)
