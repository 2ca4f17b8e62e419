"""Command-line front end.

Subcommands:
  analyze    evaluate one criterion on one state (family or JSON file)
  sweep      evaluate a criterion across a family parameter grid -> CSV
  threshold  bisect a family parameter bracket for a statistic crossing
  audit      measure criterion behavior on random separable states

Exit codes: 0 success (INCONCLUSIVE is a success), 2 malformed input or
bad flags, 3 state validation failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .criteria import (
    CRITERIA,
    ENTANGLED,
    INCONCLUSIVE,
    CriterionVerdict,
    Evaluation,
    Spectrum,
    discriminant,
    entangled,
    evaluate,
    spectrum,
    statistics,
    verdict,
)
from .linalg import MAX_KRON_DIM
from .realign import MomentSet, RealignSpec, enumerate_splits
from .states import (
    FAMILIES,
    DensityMatrix,
    StateValidationError,
    family_stack,
    load_state,
    separable_stack,
    validate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3

BISECTION_TOL = 1e-6
# Bisection levels whose midpoints one threshold round evaluates as a stack.
_TREE_DEPTH = 3

# Audit samples realigned and decomposed together; bounds the stack at
# AUDIT_CHUNK * D^2 complex entries however many states are requested.
AUDIT_CHUNK = 256
# Sweep points built, validated and evaluated together.  Narrower than an
# audit stack: a sweep takes one spectrum per stack, not one per split and
# criterion, so wide stacks save little time but hold several stack-sized
# temporaries at once (256-point stacks raised the peak RSS of the four
# figure-data sweeps by 2.3 MB; 32-point stacks by 0.6 MB).
SWEEP_CHUNK = 32

# A sweep grid with more points than this is rejected before any is built.
MAX_GRID_POINTS = 100_000


class UsageError(ValueError):
    """Bad flags or malformed input; maps to exit code 2."""


class ValidationFailure(Exception):
    """State failed an invariant or family domain check; exit code 3."""


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


def _build_state(args: argparse.Namespace) -> DensityMatrix:
    """State from --family/--param or --state; validates either way."""
    if args.state is not None and args.family is not None:
        raise UsageError("give either --family or --state, not both")
    if args.state is not None:
        try:
            dm = load_state(args.state)
        except StateValidationError:
            raise
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise UsageError(f"cannot read state file {args.state!r}: {exc}") from exc
        try:
            return validate(dm)
        except StateValidationError as exc:
            raise ValidationFailure(str(exc)) from exc
    if args.family is None:
        raise UsageError("one of --family or --state is required")
    if args.param is None:
        raise UsageError("--family requires --param")
    dims, matrices = _family_stack(args.family, [args.param])
    return DensityMatrix(dims=dims, matrix=matrices[0])


def _family_stack(family: str, xs: list[float]) -> tuple[tuple[int, ...], np.ndarray]:
    """:func:`family_stack`, all or nothing, with CLI errors.

    An unknown family raises UsageError; a member outside the family's
    domain or failing validation raises ValidationFailure.
    """
    try:
        return family_stack(family, xs)
    except KeyError:
        raise UsageError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}") from None
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


def evaluate_stack(
    matrices: np.ndarray,
    dims: tuple[int, ...],
    criterion: str,
    *,
    a: float | None = None,
    u: float | None = None,
    v: float | None = None,
    split: str | RealignSpec | None = None,
    party: int | None = None,
) -> Evaluation:
    """:func:`evaluate` with the criterion's flags, on a (N, D, D) stack over `dims`.

    The split is parsed unless it already is a RealignSpec.  An unknown
    criterion, a missing flag, and every ValueError of :func:`evaluate`
    (bad splits or parties, invalid or non-finite weights) raise UsageError.
    """
    if criterion not in CRITERIA:
        raise UsageError(f"unknown criterion {criterion!r}; choose from {tuple(CRITERIA)}")
    row = CRITERIA[criterion]
    try:
        if row.reads == "party" and party is None:
            raise UsageError(f"criterion {criterion} requires --party")
        spec = None
        if row.reads == "split":
            if split is None:
                raise UsageError(f"criterion {criterion} requires --split")
            spec = split if isinstance(split, RealignSpec) else RealignSpec.parse(split)
        weight = {"a": a, "u": u, "v": v}.get(row.flag)
        if row.flag and weight is None:
            raise UsageError(f"criterion {criterion} requires --{row.flag}")
        return evaluate(matrices, dims, criterion, weight, spec, party)
    except UsageError:
        raise
    except ValueError as exc:
        # Weight sign, split/party versus dims: input problems, not state ones.
        raise UsageError(str(exc)) from exc


def evaluate_criterion(
    dm: DensityMatrix, criterion: str, **flags: float | str | None
) -> tuple[CriterionVerdict, Evaluation]:
    """One criterion's verdict on one state: :func:`evaluate_stack` with N = 1.

    Takes the same flags, and returns the evaluation beside the verdict,
    so that callers reporting T1/T2 take the spectrum only once.
    """
    ev = evaluate_stack(np.asarray(dm.matrix)[None], dm.dims, criterion, **flags)
    return verdict(ev), ev


def _family_evaluation(family: str, xs: list[float], criterion: str, **flags) -> Evaluation:
    """Family members at `xs` built as one stack and evaluated together, all or nothing."""
    dims, matrices = _family_stack(family, xs)
    return evaluate_stack(matrices, dims, criterion, **flags)


def _split_once(split: str | None) -> str | RealignSpec | None:
    """`split` parsed once for the many evaluations of one request.

    Text that does not parse is returned as is, so that the evaluation
    that reaches it raises its error, in the order it always did.
    """
    try:
        return split if split is None else RealignSpec.parse(split)
    except ValueError:
        return split


def _format_admissible(verdict: CriterionVerdict) -> str:
    rng = verdict.admissible
    if rng is None:
        return ""
    parts = []
    for iv in rng.intervals:
        left = "[" if iv.lo_closed else "("
        right = "]" if iv.hi_closed else ")"
        hi = "inf" if math.isinf(iv.hi) else _fmt(iv.hi)
        parts.append(f"{left}{_fmt(iv.lo)}, {hi}{right}")
    return " U ".join(parts)


def _write_out(path: str, write) -> None:
    """Call `write` on `path` opened for text; a path that cannot be written is a UsageError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def cmd_analyze(args: argparse.Namespace) -> int:
    dm = _build_state(args)
    result, ev = evaluate_criterion(
        dm, args.criterion, a=args.a, u=args.u, v=args.v, split=args.split, party=args.party
    )
    reads = CRITERIA[args.criterion].reads
    mset = None if ev.t1 is None else MomentSet(t1=float(ev.t1[0]), t2=float(ev.t2[0]))

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
    if args.split is not None and reads == "split":
        lines.append(("split", args.split))
    lines.append(("statistic", _fmt(result.statistic)))
    lines.append(("threshold", _fmt(result.threshold)))
    lines.append(("outcome", result.outcome))
    if mset is not None:
        lines.append(("T1", _fmt(mset.t1)))
        lines.append(("T2", _fmt(mset.t2)))
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
        payload["split"] = args.split if reads == "split" else None
        payload["party"] = args.party if reads == "party" else None
        payload["moments"] = None if mset is None else {"t1": mset.t1, "t2": mset.t2}
        payload["discriminant"] = None if mset is None else discriminant(mset)
        _write_out(args.out, lambda fh: fh.write(json.dumps(payload, indent=2) + "\n"))
    return EXIT_OK


def _parse_floats(text: str, what: str, names: tuple[str, ...]) -> list[float]:
    """The finite numbers of a colon-separated `what` like "LO:HI", or UsageError."""
    parts, form = text.split(":"), ":".join(names)
    if len(parts) != len(names):
        raise UsageError(f"{what} {text!r} must be {form}")
    try:
        values = [float(x) for x in parts]
    except ValueError as exc:
        raise UsageError(f"{what} {text!r} must be numeric {form}") from exc
    if not all(math.isfinite(x) for x in values):
        ends = f"{', '.join(names[:-1])} and {names[-1]}"
        raise UsageError(f"{what} {text!r} must have finite {ends}")
    return values


def _parse_grid(text: str) -> list[float]:
    lo, hi, step = _parse_floats(text, "range", ("LO", "HI", "STEP"))
    if step <= 0.0 or hi < lo:
        raise UsageError("range requires STEP > 0 and HI >= LO")
    pts = []
    k = 0
    while True:
        x = lo + k * step
        if x > hi + 1e-9 * step:
            break
        if len(pts) == MAX_GRID_POINTS:  # also ends a STEP too small to move x past LO
            raise UsageError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
        pts.append(min(x, hi))
        k += 1
    if not pts or pts[-1] < hi - 1e-9 * step:
        pts.append(hi)
    return pts


def _sweep_rows(xs: list[float], ev: Evaluation) -> list[SweepRow]:
    """One CSV row per state parameter of an evaluated stack.

    The admissible columns hold the finite positive ends, ascending, of
    (0, low_end] and [high_start, inf): both only for the two roots of one
    quadratic, low_end <= high_start, and neither when every weight is
    admissible (low_end and high_start both inf).
    """
    lows = highs = [None] * len(xs)
    if ev.bounds is not None:
        low, high = ev.bounds.low_end, ev.bounds.high_start
        has_low = (low > 0.0) & (low < math.inf)
        has_high = (high > 0.0) & (high < math.inf)
        first = np.where(has_low, low, high).tolist()
        lows = [x if ok else None for x, ok in zip(first, (has_low | has_high).tolist())]
        highs = [x if ok else None for x, ok in zip(high.tolist(), (has_low & has_high).tolist())]
    flagged = entangled(ev.criterion, ev.statistic).tolist()
    outcomes = [ENTANGLED if e else INCONCLUSIVE for e in flagged]
    return [
        SweepRow(x, ev.criterion, ev.parameter, stat, lo, hi, outcome)
        for x, stat, lo, hi, outcome in zip(xs, ev.statistic.tolist(), lows, highs, outcomes)
    ]


def sweep_rows(
    family: str,
    grid: list[float],
    criterion: str,
    *,
    a: float | None = None,
    u: float | None = None,
    v: float | None = None,
    split: str | None = None,
    party: int | None = None,
) -> list[SweepRow]:
    """Evaluate one criterion across a family grid, ascending order.

    Up to SWEEP_CHUNK grid points are built, validated and evaluated as one
    stack.  A chunk that fails is redone point by point, so the error raised
    is the one the point-by-point loop raises first.
    """
    flags = dict(a=a, u=u, v=v, split=_split_once(split), party=party)
    rows = []
    for start in range(0, len(grid), SWEEP_CHUNK):
        chunk = grid[start:start + SWEEP_CHUNK]
        try:
            rows += _sweep_rows(chunk, _family_evaluation(family, chunk, criterion, **flags))
        except (UsageError, ValidationFailure):
            for x in chunk:
                rows += _sweep_rows([x], _family_evaluation(family, [x], criterion, **flags))
    return rows


def write_sweep_csv(fh, rows: list[SweepRow]) -> None:
    """Fixed header, 12-significant-digit numbers, one row per grid point."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    writer.writerows(
        (_fmt(r.state_param), r.criterion, _fmt(r.criterion_param), _fmt(r.statistic),
         _fmt(r.admissible_low), _fmt(r.admissible_high), r.outcome) for r in rows
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.range_spec)
    rows = sweep_rows(
        args.family, grid, args.criterion, a=args.a, u=args.u, v=args.v,
        split=args.split, party=args.party,
    )
    if args.out:
        _write_out(args.out, lambda fh: write_sweep_csv(fh, rows))
    else:
        write_sweep_csv(sys.stdout, rows)
    return EXIT_OK


def _midpoint_tree(lo: float, hi: float) -> list[float]:
    """Every midpoint the bisection can visit in its next _TREE_DEPTH steps from [lo, hi].

    Built with the loop's own `0.5 * (lo + hi)` and width test, so each
    one equals, bit for bit, the `mid` the loop computes when it gets there.
    """
    mids: list[float] = []
    level = [(lo, hi)]
    for _ in range(_TREE_DEPTH):
        below = []
        for left, right in level:
            if right - left > BISECTION_TOL:
                mid = 0.5 * (left + right)
                mids.append(mid)
                below += [(left, mid), (mid, right)]
        level = below
    return mids


def cmd_threshold(args: argparse.Namespace) -> int:
    lo, hi = _parse_floats(args.bracket, "bracket", ("LO", "HI"))
    if hi <= lo:
        raise UsageError("bracket requires HI > LO")
    flags = dict(a=args.a, u=args.u, v=args.v, split=_split_once(args.split), party=args.party)
    # State parameter -> offset from the threshold; NaN where the statistic is undefined.
    table: dict[float, float] = {}

    def offsets(xs: list[float]) -> dict[float, float]:
        ev = _family_evaluation(args.family, xs, args.criterion, **flags)
        return dict(zip(xs, (ev.statistic - CRITERIA[ev.criterion].threshold).tolist()))

    def prefetch(xs: list[float]) -> None:
        try:
            table.update(offsets(xs))
        except (UsageError, ValidationFailure):
            pass  # offset() evaluates each visited point on its own instead

    def offset(x: float) -> float:
        value = table[x] if x in table else offsets([x])[x]
        if math.isnan(value):
            raise UsageError(
                f"statistic undefined at state parameter {_fmt(x)} "
                "(criterion parameter outside admissible range)"
            )
        return value

    # Each round evaluates the midpoints of the next _TREE_DEPTH steps as
    # one stack; the sequential bisection below then reads them from the
    # table, so errors surface only at points it visits, in its order.
    prefetch([lo, hi, *_midpoint_tree(lo, hi)])
    f_lo = offset(lo)
    f_hi = offset(hi)
    if f_lo * f_hi > 0.0:
        raise UsageError(
            f"bracket [{_fmt(lo)}, {_fmt(hi)}] does not straddle the threshold "
            f"(offsets {_fmt(f_lo)} and {_fmt(f_hi)})"
        )
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats wider than the tolerance: mid is lo or hi
        if mid not in table:
            prefetch(_midpoint_tree(lo, hi))
        f_mid = offset(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    print(_fmt(0.5 * (lo + hi)))
    return EXIT_OK


@dataclass(frozen=True)
class AuditConfig:
    """Settings for one audit run over seeded separable samples."""

    dims: tuple[int, ...]
    num_states: int = 200
    num_terms: int = 3
    seed: int = 0
    criteria: tuple[str, ...] = ("realign", "v3", "ppt")
    params: tuple[float, ...] = (0.01, 0.5, 1.0, 5.0)


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


def run_audit(cfg: AuditConfig) -> list[AuditEntry]:
    """Evaluate the requested criteria on seeded separable samples.

    Weighted criteria count only evaluations whose weight is admissible.
    A violation is an ENTANGLED verdict on a separable state; for the
    published weighted criteria on near-pure samples that is expected,
    which is exactly what this measures.  `worst_statistic` is the
    largest statistic seen (smallest for ppt), with the seed that made it.
    A criterion or weight listed twice is evaluated once.

    Up to AUDIT_CHUNK samples are drawn and validated as one stack
    (`separable_stack`).  Each split and party takes one :func:`spectrum`
    per chunk, with the admissible bounds when a gated criterion is
    requested, and every (criterion, weight) reads its statistics array
    from it with :func:`statistics`.  Each cell is tallied from that array
    with masks, the worst sample being the first index of the extreme
    value.
    """
    criteria, params = dict.fromkeys(cfg.criteria), tuple(dict.fromkeys(cfg.params))
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise UsageError(f"unknown criterion {criterion!r}; choose from {tuple(CRITERIA)}")
    n = len(cfg.dims)
    splits = enumerate_splits(n)
    entries: dict[tuple, AuditEntry] = {}

    def tally(
        criterion: str, parameter: float | None, split: str | None, stats: np.ndarray, seeds: range
    ) -> None:
        key = (criterion, parameter, split)
        if key not in entries:
            entries[key] = AuditEntry(criterion=criterion, parameter=parameter, split=split)
        ent = entries[key]
        evaluated = np.flatnonzero(~np.isnan(stats))  # NaN: weight outside the admissible range
        if not evaluated.size:
            return
        ent.evaluated += int(evaluated.size)
        ent.violations += int(np.count_nonzero(entangled(criterion, stats)))
        values = stats[evaluated]
        lowest = CRITERIA[criterion].below
        i = int(evaluated[values.argmin() if lowest else values.argmax()])
        stat = float(stats[i])
        if math.isnan(ent.worst_statistic) or (
            stat < ent.worst_statistic if lowest else stat > ent.worst_statistic
        ):
            ent.worst_statistic, ent.worst_seed = stat, seeds[i]

    gated = any(CRITERIA[c].gated for c in criteria)
    for start in range(0, cfg.num_states, AUDIT_CHUNK):
        seeds = range(cfg.seed + start, cfg.seed + min(cfg.num_states, start + AUDIT_CHUNK))
        stack = separable_stack(cfg.dims, cfg.num_terms, seeds)
        spectra: dict[RealignSpec | int, Spectrum] = {}

        def spectrum_of(target: RealignSpec | int) -> Spectrum:
            if n == 2 and target == 2:  # rho^T2 = (rho^T1)^T: rho^T1's spectrum, bit for bit
                target = 1
            if target not in spectra:
                spectra[target] = (spectrum(stack, cfg.dims, party=target) if isinstance(target, int)
                                   else spectrum(stack, cfg.dims, target, gated=gated))
            return spectra[target]

        for criterion in criteria:
            row = CRITERIA[criterion]
            if row.reads == "pair" and n != 2:
                continue  # the 1|2 realignment of a two-party state, whose one split is 1|2
            # (parameter, split label, spectrum target) of each cell, in report order
            cells = ([(float(p), None, p) for p in range(1, n + 1)] if row.reads == "party" else
                     [(w, str(sp), sp) for sp in splits for w in (params if row.flag else (None,))])
            for parameter, split, target in cells:
                stats = statistics(criterion, spectrum_of(target), parameter)
                tally(criterion, parameter, split, stats, seeds)
    return list(entries.values())


def cmd_audit(args: argparse.Namespace) -> int:
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError as exc:
        raise UsageError(f"dims {args.dims!r} must be comma-separated integers") from exc
    if len(dims) < 2 or any(d < 2 for d in dims):
        raise UsageError("dims needs at least two parties of dimension >= 2")
    criteria = tuple(c.strip() for c in args.criteria.split(",") if c.strip())
    for c in criteria:
        if c not in CRITERIA:
            raise UsageError(f"unknown criterion {c!r}; choose from {tuple(CRITERIA)}")
    weighted = [CRITERIA[c] for c in criteria if CRITERIA[c].flag]
    try:
        params = tuple(float(x) for x in args.params.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"params {args.params!r} must be comma-separated numbers") from exc
    if args.num_states < 1 or args.num_terms < 1:
        raise UsageError("--num-states and --num-terms must be >= 1")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if math.prod(dims) > MAX_KRON_DIM:
        raise UsageError(
            f"dims {args.dims!r} give dimension {math.prod(dims)}, above the cap {MAX_KRON_DIM}"
        )
    for w in params:
        if not math.isfinite(w):
            raise UsageError(f"weight {w!r} in --params is not finite")
        if w * w == math.inf:
            raise UsageError(f"weight {w!r} in --params is too large")
        if w < 0.0 and any(not row.positive for row in weighted):
            raise UsageError(f"v3 needs nonnegative weights, got {w!r}")
        if w <= 0.0 and any(row.positive for row in weighted):
            raise UsageError(f"v1 and v2 need positive weights, got {w!r}")

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
        payload = {"config": asdict(cfg), "entries": [asdict(e) for e in report]}
        for e in payload["entries"]:
            if isinstance(e["worst_statistic"], float) and math.isnan(e["worst_statistic"]):
                e["worst_statistic"] = None
        _write_out(args.out, lambda fh: fh.write(json.dumps(payload, indent=2) + "\n"))
    return EXIT_OK


def _add_state_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--family", choices=sorted(FAMILIES), help="state family name")
    sp.add_argument("--param", type=float, help="family parameter value")
    sp.add_argument("--state", help="path to a state JSON file")


def _add_criterion_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--criterion", required=True, choices=CRITERIA)
    sp.add_argument("--a", type=float, help="weight for v1")
    sp.add_argument("--u", type=float, help="weight for v2")
    sp.add_argument("--v", type=float, help="weight for v3")
    sp.add_argument("--split", help='party grouping like "1|2" or "12|3" (v2/v3/realign)')
    sp.add_argument("--party", type=int, help="1-based party index (ppt)")


def _analyze_flags(sp: argparse.ArgumentParser) -> None:
    _add_state_flags(sp)
    _add_criterion_flags(sp)
    sp.add_argument("--out", help="also write the verdict as JSON to this path")
    sp.set_defaults(func=cmd_analyze)


def _sweep_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--family", required=True, choices=sorted(FAMILIES))
    sp.add_argument(
        "--range", required=True, dest="range_spec", metavar="LO:HI:STEP",
        help="closed state-parameter grid, both endpoints included",
    )
    _add_criterion_flags(sp)
    sp.add_argument("--out", help="CSV output path (default: stdout)")
    sp.set_defaults(func=cmd_sweep)


def _threshold_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--family", required=True, choices=sorted(FAMILIES))
    sp.add_argument(
        "--bracket", required=True, metavar="LO:HI",
        help="state-parameter bracket that must straddle the threshold",
    )
    _add_criterion_flags(sp)
    sp.set_defaults(func=cmd_threshold)


def _audit_flags(sp: argparse.ArgumentParser) -> None:
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
    sp.set_defaults(func=cmd_audit)


# name -> (help line, flags), in the order of the usage line
SUBCOMMANDS = {
    "analyze": ("evaluate one criterion on one state", _analyze_flags),
    "sweep": ("evaluate a criterion across a family grid -> CSV", _sweep_flags),
    "threshold": ("bisect a statistic/threshold crossing", _threshold_flags),
    "audit": ("run criteria against random separable states", _audit_flags),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process (parse_args keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="remoments",
        description="Entanglement detection from realignment moments of density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags) in SUBCOMMANDS.items():
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
