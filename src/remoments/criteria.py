"""Entanglement criteria built on realignment moments, plus comparators.

The moment criteria (`v1`, `v2`, `v3`) need only the first two moment
sums T1 and T2 of a realigned state.  `v1`/`v2` carry a tunable weight
whose validity window (the "admissible range") depends on the sign of a
discriminant; `v3` holds for every nonnegative weight with no window.
A statistic above 1 at an admissible weight flags entanglement.  The
comparators are the plain trace-norm test on the realigned rectangle
and the partial-transpose minimum eigenvalue.

`CRITERIA` holds what each criterion needs, its statistic as a function
of a :class:`Spectrum` included, so a new criterion is one row and one
function.  :func:`evaluate` computes any of them on a stack of states as
arrays, and :func:`verdict` reads one state's verdict from that; the
public ``verdict_*`` functions are the one-state case of the two.

As published, the weighted criterion evaluates to sqrt(1 + 4/a) > 1 on
every pure product state, so a statistic above 1 is not by itself proof
of entanglement; the `audit` command of the CLI measures that gap on
random separable states rather than hiding it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .linalg import checked_hermitian_part, eigvalsh, gram, gram_moments, gram_singular_values
from .realign import RealignSpec, realign_array, transpose_party
from .states import DensityMatrix

ENTANGLED = "ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE"

# A statistic must clear its threshold by this much before we call it.
DETECTION_SLACK = 1e-9
# A partial-transpose eigenvalue below -PT_NEGATIVITY_TOL certifies NPT.
PT_NEGATIVITY_TOL = 1e-10
# Quadratic coefficient below this is treated as the rank-1 linear case.
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """One interval of weight values; `hi` may be math.inf."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool


@dataclass(frozen=True)
class AdmissibleRange:
    """Weight values where the v1/v2 bound is asserted (radicand >= 0)."""

    intervals: tuple[Interval, ...]
    discriminant: float
    degenerate: bool


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one criterion evaluation on one state."""

    criterion: str
    parameter: float | None
    statistic: float
    threshold: float
    outcome: str
    admissible: AdmissibleRange | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        """JSON-safe mirror (NaN -> null, inf -> null)."""
        return json_safe(asdict(self))


def json_safe(obj):
    """`obj` for json.dumps: tuples as lists, NaN and infinite floats as None."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def discriminant(t1, t2):
    """(T1^2 - T1)^2 - 2 (T1^2 - T2) T1^2, of floats or of arrays alike.

    Nonpositive means the weighted bound holds for every weight a > 0;
    positive splits the admissible weights into two intervals around the
    roots of the radicand.
    """
    # lin * lin, not lin ** 2: Python's float ** 2 goes through libm pow,
    # which is not always the correctly rounded square.
    lin = t1 * t1 - t1
    return lin * lin - 2.0 * (t1 * t1 - t2) * t1 * t1


@dataclass(frozen=True)
class AdmissibleBounds:
    """The v1/v2 admissible ranges of a stack of moment sums, as arrays.

    For state i a weight a > 0 is admissible exactly when it is finite and
    a <= low_end[i] or a >= high_start[i] (:meth:`admits`, the one
    membership test).  low_end is the closed upper end
    of (0, low_end] (inf when every weight is admissible); high_start is
    the closed lower end of [high_start, inf) (inf when there is no such
    interval).
    """

    discriminant: np.ndarray
    degenerate: np.ndarray
    low_end: np.ndarray
    high_start: np.ndarray

    def admits(self, weight: float) -> np.ndarray:
        """Mask of the states where `weight` is admissible (none when it is <= 0, inf or NaN)."""
        return ((weight <= self.low_end) | (weight >= self.high_start)) & (0.0 < weight < math.inf)

    def at(self, i: int) -> AdmissibleRange:
        """State i's range as intervals."""
        low, high = float(self.low_end[i]), float(self.high_start[i])
        intervals = ()
        if low > 0.0:  # when degenerate, low_end is inf or a tail T1^2/(T1 - T1^2) > 0
            intervals += (Interval(0.0, low, lo_closed=False, hi_closed=low < math.inf),)
        if high < math.inf:
            intervals += (Interval(high, math.inf, lo_closed=True, hi_closed=False),)
        return AdmissibleRange(intervals, float(self.discriminant[i]), bool(self.degenerate[i]))


def admissible_bounds(t1: np.ndarray, t2: np.ndarray) -> AdmissibleBounds:
    """Weights a > 0 where the radicand F(a) stays nonnegative, per state.

    The quadratic coefficient (T1^2 - T2)/2 is nonnegative for genuine
    moment sets.  Nondegenerate with a nonpositive discriminant: all of
    (0, inf).  Positive discriminant: (0, r-] and [r+, inf) around the
    radicand's roots, dropping an interval whose upper end is not
    positive.  r- = 2 T1^2 / (sqrt(delta) + T1 - T1^2) (Vieta: the roots
    multiply to 2 T1^2/(T1^2 - T2)) subtracts nothing; r+ carries the
    rounding of T1^2 - T2.  Degenerate (rank-1 realignment, T2 = T1^2):
    the linear tail decides, giving (0, inf) when T1^2 >= T1 and otherwise
    (0, T1^2/(T1 - T1^2)].
    """
    quad = t1 * t1 - t2
    lin = t1 * t1 - t1
    disc = discriminant(t1, t2)
    degenerate = quad <= DEGENERATE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):  # only where unused
        root = np.sqrt(disc)
        lower = 2.0 * t1 * t1 / (root - lin)
        upper = (-lin + root) / quad
        tail = t1 * t1 / -lin
    two_sided = ~degenerate & (disc > 0.0) & (upper > 0.0)
    low_end = np.where(two_sided, lower, np.inf)
    low_end = np.where(degenerate & (lin < 0.0), tail, low_end)
    high_start = np.where(two_sided, upper, np.inf)
    return AdmissibleBounds(disc, degenerate, low_end, high_start)


def admissible_range(t1: float, t2: float) -> AdmissibleRange:
    """One state's admissible weights: its :func:`admissible_bounds` as intervals."""
    return admissible_bounds(np.array([t1]), np.array([t2])).at(0)


def _weighted(t1, t2, a: float):
    """The v1/v2 formula at an admitted weight; F rounding below 0 at an end of the range clamps to 0."""
    # F(a) = (T1^2 - T2) a^2 / 2 + (T1^2 - T1) a + T1^2
    f = (t1 * t1 - t2) * a * a / 2.0 + (t1 * t1 - t1) * a + t1 * t1
    return np.sqrt((2.0 / a) * ((1.0 + a / 2.0) * t1 + np.sqrt(np.maximum(f, 0.0))))


def v1(t1, t2, a: float):
    """Weighted moment statistic sqrt((2/a)((1 + a/2) T1 + sqrt(F(a)))), of floats or of arrays alike.

    Raises the ValueError of v1's ``check_weight`` for a weight outside its domain, then
    ``weight W lies outside the admissible range`` where :func:`admissible_bounds` does not admit
    `a` for some state.  Inside the range, F rounding below 0 clamps to 0.
    """
    CRITERIA["v1"].check_weight(a)
    if not admissible_bounds(np.atleast_1d(t1), np.atleast_1d(t2)).admits(a).all():
        raise ValueError(f"weight {a!r} lies outside the admissible range")
    return _weighted(t1, t2, a)


def v3(t1, t2, v: float):
    """Unconditional moment statistic, valid for every weight v >= 0, of floats or of arrays alike.

    sqrt((sqrt(T1 + (v^2 + 2v) T2) - v sqrt(T2))^2 + sqrt(2 (T1^2 - T2))).
    No admissible-range gate; separable states stay at or below 1.  At
    v = 0 this is the limit value sqrt(T1 + sqrt(2 (T1^2 - T2))).
    """
    CRITERIA["v3"].check_weight(v)
    # sqrt(T1 + (v^2 + 2v) T2) - v sqrt(T2) without that difference, which cancels at large v
    inner = (t1 + 2.0 * v * t2) / (np.sqrt(t1 + (v * v + 2.0 * v) * t2) + v * np.sqrt(t2))
    spread = np.maximum(2.0 * (t1 * t1 - t2), 0.0)
    return np.sqrt(inner * inner + np.sqrt(spread))


def entangled(criterion: str, statistic):
    """Whether a statistic (float or array) flags entanglement.

    Below the row's threshold by more than PT_NEGATIVITY_TOL where the row
    says `below` (ppt), otherwise above it by more than DETECTION_SLACK.
    """
    row = CRITERIA[criterion]
    if row.below:
        return statistic < row.threshold - PT_NEGATIVITY_TOL
    return statistic > row.threshold + DETECTION_SLACK


class Spectrum(NamedTuple):
    """Per state: ppt minimum eigenvalues, or trace norms (realign only), T1, T2 and bounds (v1/v2 only)."""

    values: np.ndarray | None
    t1: np.ndarray | None = None
    t2: np.ndarray | None = None
    bounds: AdmissibleBounds | None = None


def _gated_v1(sp: Spectrum, a: float) -> np.ndarray:
    """v1 at `a` where it is admissible by `sp.bounds`, NaN elsewhere."""
    CRITERIA["v1"].check_weight(a)  # a bad weight raises even if none is admitted
    ok = sp.bounds.admits(a)
    stats = np.full(np.shape(sp.t1), np.nan)
    stats[ok] = _weighted(sp.t1[ok], sp.t2[ok], a)
    return stats


def _v3(sp: Spectrum, v: float) -> np.ndarray:
    return v3(sp.t1, sp.t2, v)


def _values(sp: Spectrum, weight: float | None) -> np.ndarray:
    return sp.values


class _Row(NamedTuple):
    """What one criterion needs; see :data:`CRITERIA`."""

    flag: str | None  # the weight's CLI option without "--", which cli._request reads; None when unweighted
    reads: str  # "pair": the 1|2 realignment; "split": a split's; "party": a partial transpose
    gated: bool  # the weight must be > 0 and lie in the admissible range (otherwise >= 0)
    statistic: Callable[[Spectrum, float | None], np.ndarray]  # each state's, at a weight
    threshold: float = 1.0  # the value the statistic is compared with
    below: bool = False  # a statistic below the threshold flags entanglement, not one above

    def check_weight(self, weight: float) -> None:
        """Raise ValueError unless `weight` is > 0 (gated) or >= 0 (not gated) with a finite square;
        a gated weight also needs a finite 8/weight.  NaN passes: the front ends reject it before this.
        """
        weight = float(weight)  # a numpy scalar would warn as its square or 8/weight overflows
        if self.gated and weight <= 0.0:
            raise ValueError(f"weight must be positive, got {weight!r}")
        if weight < 0.0:
            raise ValueError(f"weight must be nonnegative, got {weight!r}")
        if weight * weight == math.inf:
            raise ValueError(f"weight {weight!r} is too large: its square overflows")
        if self.gated and 8.0 / weight == math.inf:  # v1^2 is about 4 T1 / a, and T1 may round above 1
            raise ValueError(f"weight {weight!r} is too small: 8/weight overflows")


# v1 and v2 share one formula and differ only in which realignment the
# moments come from; v3 holds for every weight >= 0, with no gate.
CRITERIA = {
    "v1": _Row("a", "pair", gated=True, statistic=_gated_v1),
    "v2": _Row("u", "split", gated=True, statistic=_gated_v1),
    "v3": _Row("v", "split", gated=False, statistic=_v3),
    "realign": _Row(None, "split", gated=False, statistic=_values),
    "ppt": _Row(None, "party", gated=False, statistic=_values, threshold=0.0, below=True),
}


def criterion_row(name: str) -> _Row:
    """The :data:`CRITERIA` row of `name`; an unknown name raises ValueError."""
    if name not in CRITERIA:
        raise ValueError(f"unknown criterion {name!r}; choose from {tuple(CRITERIA)}")
    return CRITERIA[name]


def spectrum(
    matrices: np.ndarray, dims: tuple[int, ...], target: RealignSpec | int,
    criteria: Iterable[str] = tuple(CRITERIA), later: bool = False,
) -> Spectrum | Callable[[], Spectrum]:
    """The :class:`Spectrum` the rows of `criteria` read off `target`: for a 1-based party,
    one eigensolve of a stack's partial transpose over it; for a split, the :func:`gram`
    stack G of its realignment, read as T1 = tr G and T2 = ||G||_F^2 with no eigensolve.
    Only realign eigensolves G and only v1/v2 take bounds; the permuted stack and the results are fresh arrays.
    With `later`, the eigensolve is queued on linalg's solver thread, and a function to call once returns the Spectrum.
    """
    if not isinstance(target, RealignSpec):
        w = eigvalsh(checked_hermitian_part(transpose_party(matrices, dims, target)), later)
        done = lambda: Spectrum(w()[:, 0])  # the minimum eigenvalues
    else:
        rows = [criterion_row(c) for c in criteria]
        g = gram(realign_array(matrices, dims, target))
        t1, t2 = gram_moments(g)
        w = eigvalsh(g, later) if any(r.reads == "split" and not r.flag for r in rows) else None  # realign
        done = lambda: Spectrum(gram_singular_values(w()).sum(axis=-1) if w else None, t1, t2,
                                admissible_bounds(t1, t2) if any(r.gated for r in rows) else None)
    return done if later else done()


class Evaluation(NamedTuple):
    """One criterion evaluated on every matrix of a stack, as arrays.

    `statistic` is NaN where a v1/v2 weight is not admissible; `parameter`
    is the weight, the party as a float (ppt) or None (realign).  v1/v2/v3
    carry their moment sums and v1/v2 their admissible bounds.
    """

    criterion: str
    parameter: float | None
    statistic: np.ndarray
    t1: np.ndarray | None = None
    t2: np.ndarray | None = None
    bounds: AdmissibleBounds | None = None


def check_request(
    dims: tuple[int, ...], criterion: str, weight: float | None = None,
    spec: RealignSpec | None = None, party: int | None = None,
) -> tuple[_Row, float | None, RealignSpec | int]:
    """Check an :func:`evaluate` request on states over `dims`, reading no state.

    In order: the row; a missing party, split or weight; v1's two parties; a finite
    weight; the split's or party's range; the weight's ``check_weight``, its message
    suffixed `` (criterion X)``.  The first that fails raises ValueError.  Returns the row,
    the weight (a float where the row takes one) and the target: the party, the split, or 1|2 for v1.
    """
    row = criterion_row(criterion)
    if row.reads == "party" and party is None:
        raise ValueError(f"criterion {criterion} requires --party")
    if row.reads == "split" and spec is None:
        raise ValueError(f"criterion {criterion} requires --split")
    if row.flag and weight is None:
        raise ValueError(f"criterion {criterion} requires --{row.flag}")
    if row.reads == "pair" and len(dims) != 2:
        raise ValueError(f"criterion {criterion} requires a two-party state (use v2 with --split instead)")
    if row.flag and not math.isfinite(weight := float(weight)):
        raise ValueError(f"--{row.flag} must be finite, got {weight!r}")
    target = party if row.reads == "party" else RealignSpec((1,), (2,)) if row.reads == "pair" else spec
    if row.reads != "party":
        target.validate_for(len(dims))
    elif not 1 <= party <= len(dims):  # as transpose_party checks it
        raise ValueError(f"party {party!r} out of range for {len(dims)} parties")
    if row.flag:
        try:
            row.check_weight(weight)
        except ValueError as exc:
            raise ValueError(f"{exc} (criterion {criterion})") from exc
    return row, weight, target


def evaluate(
    matrices: np.ndarray, dims: tuple[int, ...], criterion: str, weight: float | None = None,
    spec: RealignSpec | None = None, party: int | None = None,
) -> Evaluation:
    """Evaluate one criterion on every matrix of a (N, D, D) stack over `dims`.

    v1 reads the 1|2 realignment of a two-party state, v2, v3 and realign
    that of `spec`, and ppt the partial transpose over `party`; v1, v2 and
    v3 take `weight`.  After :func:`check_request`, whose ValueError it raises,
    this is one :func:`spectrum` call at the target, serving this criterion
    alone, so v1/v2/v3 take no eigensolve, and the row's `statistic` on it.
    """
    row, weight, target = check_request(dims, criterion, weight, spec, party)
    sp = spectrum(matrices, dims, target, (criterion,))
    stats = row.statistic(sp, weight)
    if not row.flag:
        return Evaluation(criterion, float(target) if row.reads == "party" else None, stats)
    return Evaluation(criterion, weight, stats, sp.t1, sp.t2, sp.bounds)


def verdict(ev: Evaluation, i: int = 0) -> CriterionVerdict:
    """The verdict on matrix i of an evaluated stack.

    v1 and v2 report the state's admissible range and, where the weight
    lies outside it, a note beside the NaN statistic.
    """
    stat = float(ev.statistic[i])
    admissible = note = None
    if ev.bounds is not None:
        admissible = ev.bounds.at(i)
        if not ev.bounds.admits(ev.parameter)[i]:
            note = "parameter outside admissible range"
    outcome = ENTANGLED if entangled(ev.criterion, stat) else INCONCLUSIVE
    return CriterionVerdict(
        ev.criterion, ev.parameter, stat, CRITERIA[ev.criterion].threshold, outcome, admissible, note
    )


def verdict_v1(dm: DensityMatrix, a: float) -> CriterionVerdict:
    """Weighted moment criterion on a two-party state at weight a."""
    return verdict(evaluate(dm.matrix[None], dm.dims, "v1", a))


def verdict_v2(dm: DensityMatrix, spec: RealignSpec, u: float) -> CriterionVerdict:
    """Weighted moment criterion on a partial realignment at weight u.

    Same pipeline as :func:`verdict_v1` with the moments taken from
    `realign_partial(dm, spec)`; for two parties split "1|2" the two
    agree exactly.
    """
    return verdict(evaluate(dm.matrix[None], dm.dims, "v2", u, spec))


def verdict_v3(dm: DensityMatrix, spec: RealignSpec, v: float) -> CriterionVerdict:
    """Unconditional moment criterion on a partial realignment at weight v."""
    return verdict(evaluate(dm.matrix[None], dm.dims, "v3", v, spec))


def realignment_norm_verdict(dm: DensityMatrix, spec: RealignSpec) -> CriterionVerdict:
    """Trace norm of the realigned rectangle; above 1 flags entanglement."""
    return verdict(evaluate(dm.matrix[None], dm.dims, "realign", spec=spec))


def partial_transpose(dm: DensityMatrix, party: int) -> np.ndarray:
    """Transpose the indices of one 1-based party, leaving the rest alone."""
    return transpose_party(dm.matrix, dm.dims, party)


def ppt_verdict(dm: DensityMatrix, party: int) -> CriterionVerdict:
    """Partial-transpose test: a negative eigenvalue certifies entanglement.

    The statistic is the minimum eigenvalue of the partial transpose over
    the given party; at or above -1e-10 the test is inconclusive (the
    state may still be bound entangled).
    """
    return verdict(evaluate(dm.matrix[None], dm.dims, "ppt", party=party))
