"""Reference outputs for every benchmark request, and the checks against them.

Sweeps are checked byte for byte against CSVs that the CLI wrote at seed
commit 63f9c97 (files in ``ref/``; README.md gives the argv).  Audits
and threshold solves take inputs drawn from the seed, so their reference
is computed here: a frozen, independent copy of the seed commit's
arithmetic.  It draws the same separable samples, takes every spectrum
from one stacked ``np.linalg.svd`` per split instead of the program's
Gram eigensolver, and applies the seed's gates and slack.  The oracle
never calls the program.

What must match, and how closely:

* sweep CSV: every byte;
* threshold: the printed root within BISECTION_TOL of the reference root;
* audit JSON: the config echo and the list of cells exactly, `evaluated`
  exactly, v1/v2 `violations` exactly, `worst_statistic` within STAT_TOL.

v3, realign and ppt violations are not compared: on separable samples
they are false positives, which the benchmark reports as
`false_entangled` so that a fix counts as a gain rather than a mismatch.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "ref"

BISECTION_TOL = 1e-6
STAT_TOL = 1e-6
DETECTION_SLACK = 1e-9
PT_NEGATIVITY_TOL = 1e-10
DEGENERATE_TOL = 1e-12
F_CLAMP = -1e-12
GAPLESS = ("v3", "realign", "ppt")


def sample_separable(dims: tuple[int, ...], num_terms: int, seed: int) -> np.ndarray:
    """The seed's separable sampler: same draws, same arithmetic order."""
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=num_terms)
    weights /= weights.sum()
    d = math.prod(dims)
    m = np.zeros((d, d), dtype=complex)
    for w in weights:
        ket = np.ones(1, dtype=complex)
        for dk in dims:
            factor = rng.standard_normal(dk) + 1j * rng.standard_normal(dk)
            factor /= np.linalg.norm(factor)
            ket = np.kron(ket, factor)
        m += w * np.outer(ket, ket.conj())
    return m


def splits(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Unordered splits in the CLI's audit order, as 0-based party groups."""
    out = []
    for mask1 in range(1, 1 << n):
        for mask2 in range(1, 1 << n):
            if mask1 & mask2:
                continue
            g1 = tuple(p for p in range(n) if (mask1 >> p) & 1)
            g2 = tuple(p for p in range(n) if (mask2 >> p) & 1)
            if min(g1) < min(g2):
                out.append((g1, g2))
    return out


def split_label(g1: tuple[int, ...], g2: tuple[int, ...]) -> str:
    return "".join(str(p + 1) for p in g1) + "|" + "".join(str(p + 1) for p in g2)


def parse_split(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a, b = text.split("|")
    return tuple(int(c) - 1 for c in a), tuple(int(c) - 1 for c in b)


def singular_values(states: np.ndarray, dims: tuple[int, ...], g1, g2) -> np.ndarray:
    """Singular values of the partial realignment of a (N, D, D) stack."""
    n = len(dims)
    comp = [p for p in range(n) if p not in g1 and p not in g2]
    rows = list(g1) + [n + p for p in g1] + comp
    cols = list(g2) + [n + p for p in g2] + [n + p for p in comp]
    d1 = math.prod(dims[p] for p in g1)
    d2 = math.prod(dims[p] for p in g2)
    dc = math.prod(dims[p] for p in comp)
    t = states.reshape((len(states),) + dims + dims)
    t = t.transpose([0] + [1 + a for a in rows + cols])
    return np.linalg.svd(t.reshape(len(states), d1 * d1 * dc, d2 * d2 * dc), compute_uv=False)


def _moments(sv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s2 = sv**2
    return s2.sum(axis=1), (s2**2).sum(axis=1)


def admissible(t1: float, t2: float, a: float) -> bool:
    """The seed's admissible-range gate for weight `a`."""
    quad = t1 * t1 - t2
    lin = t1 * t1 - t1
    if quad <= DEGENERATE_TOL:
        return lin >= 0.0 or a <= t1 * t1 / (-lin)
    disc = (t1 * t1 - t1) ** 2 - 2.0 * (t1 * t1 - t2) * t1 * t1
    if disc <= 0.0:
        return True
    root = math.sqrt(disc)
    lower = (-lin - root) / quad
    upper = (-lin + root) / quad
    if upper <= 0.0:
        return True
    return (lower > 0.0 and a <= lower) or a >= upper


def weighted_statistic(t1: float, t2: float, a: float) -> float:
    """v1/v2 at weight `a`, NaN outside the admissible range."""
    if not admissible(t1, t2, a):
        return math.nan
    f = max((t1 * t1 - t2) * a * a / 2.0 + (t1 * t1 - t1) * a + t1 * t1, 0.0)
    return math.sqrt((2.0 / a) * ((1.0 + a / 2.0) * t1 + math.sqrt(f)))


def v3_statistic(t1: np.ndarray, t2: np.ndarray, v: float) -> np.ndarray:
    inner = np.sqrt(t1 + (v * v + 2.0 * v) * t2) - v * np.sqrt(t2)
    spread = np.maximum(2.0 * (t1 * t1 - t2), 0.0)
    return np.sqrt(inner * inner + np.sqrt(spread))


def min_pt_eigenvalue(states: np.ndarray, dims: tuple[int, ...], party: int) -> np.ndarray:
    n = len(dims)
    axes = list(range(2 * n))
    axes[party], axes[n + party] = axes[n + party], axes[party]
    t = states.reshape((len(states),) + dims + dims).transpose([0] + [1 + a for a in axes])
    d = math.prod(dims)
    return np.linalg.eigvalsh(t.reshape(len(states), d, d))[:, 0]


def _cell(criterion: str, parameter, split, stats: np.ndarray) -> dict:
    ok = stats[~np.isnan(stats)]
    if criterion == "ppt":
        violations = int((ok < -PT_NEGATIVITY_TOL).sum())
        worst = float(ok.min()) if ok.size else None
    else:
        violations = int((ok > 1.0 + DETECTION_SLACK).sum())
        worst = float(ok.max()) if ok.size else None
    return {"criterion": criterion, "parameter": parameter, "split": split,
            "evaluated": int(ok.size), "violations": violations, "worst_statistic": worst}


def audit(expect: dict) -> dict:
    """Reference audit report: config echo plus one cell per (criterion, weight, split)."""
    dims = tuple(expect["dims"])
    n = len(dims)
    params = expect["params"]
    states = np.stack([
        sample_separable(dims, expect["num_terms"], expect["seed"] + i)
        for i in range(expect["num_states"])
    ])
    spectra = {split_label(*s): singular_values(states, dims, *s) for s in splits(n)}
    cells = []
    for criterion in expect["criteria"]:
        if criterion in ("v1", "v2"):
            if criterion == "v1" and n != 2:
                continue
            for label, sv in spectra.items():
                if criterion == "v1" and label != "1|2":
                    continue
                t1, t2 = _moments(sv)
                for a in params:
                    stats = np.array([weighted_statistic(x, y, a) for x, y in zip(t1, t2)])
                    cells.append(_cell(criterion, a, label, stats))
        elif criterion == "v3":
            for label, sv in spectra.items():
                t1, t2 = _moments(sv)
                cells.extend(_cell("v3", v, label, v3_statistic(t1, t2, v)) for v in params)
        elif criterion == "realign":
            cells.extend(_cell("realign", None, label, sv.sum(axis=1)) for label, sv in spectra.items())
        elif criterion == "ppt":
            cells.extend(
                _cell("ppt", float(p + 1), None, min_pt_eigenvalue(states, dims, p)) for p in range(n)
            )
    return {"config": dict(expect), "entries": cells}


def check_audit(payload: object, expect: dict) -> list[str]:
    """Mismatches between an audit JSON payload and the reference."""
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        return ["audit JSON lacks an entries list"]
    ref = audit(expect)
    problems = []
    if payload.get("config") != ref["config"]:
        problems.append(f"config {payload.get('config')!r} != {ref['config']!r}")
    got = payload["entries"]
    if len(got) != len(ref["entries"]):
        return problems + [f"{len(got)} cells, reference has {len(ref['entries'])}"]
    for g, r in zip(got, ref["entries"]):
        where = f"{r['criterion']} {r['parameter']} {r['split']}"
        if (g.get("criterion"), g.get("parameter"), g.get("split")) != (
            r["criterion"], r["parameter"], r["split"]
        ):
            problems.append(f"cell {g.get('criterion')} {g.get('parameter')} {g.get('split')} != {where}")
            continue
        if g.get("evaluated") != r["evaluated"]:
            problems.append(f"{where}: evaluated {g.get('evaluated')} != {r['evaluated']}")
        if r["criterion"] not in GAPLESS and g.get("violations") != r["violations"]:
            problems.append(f"{where}: violations {g.get('violations')} != {r['violations']}")
        gw, rw = g.get("worst_statistic"), r["worst_statistic"]
        if (gw is None) != (rw is None) or (rw is not None and not abs(gw - rw) <= STAT_TOL):
            problems.append(f"{where}: worst_statistic {gw} != {rw}")
    return problems


def false_entangled(payload: dict) -> tuple[int, int]:
    """(ENTANGLED verdicts, evaluations) of the gapless criteria in an audit payload."""
    cells = [e for e in payload["entries"] if e["criterion"] in GAPLESS]
    return sum(e["violations"] for e in cells), sum(e["evaluated"] for e in cells)


GHZ4 = np.zeros(16, dtype=complex)
GHZ4[0] = GHZ4[15] = 1.0 / math.sqrt(2.0)


def threshold_root(v: float, split: str) -> float:
    """noisy_ghz4 parameter where v3 at weight `v` across `split` crosses 1."""
    g1, g2 = parse_split(split)

    def offset(x: float) -> float:
        m = (1.0 - x) / 16.0 * np.eye(16, dtype=complex) + x * np.outer(GHZ4, GHZ4.conj())
        t1, t2 = _moments(singular_values(m[None], (2, 2, 2, 2), g1, g2))
        return float(v3_statistic(t1, t2, v)[0]) - 1.0

    lo, hi = 0.0, 1.0
    f_lo = offset(lo)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = offset(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_threshold(stdout: str, expect: dict) -> list[str]:
    try:
        got = float(stdout.strip())
    except ValueError:
        return [f"threshold printed {stdout.strip()!r}, not a number"]
    root = threshold_root(expect["v"], expect["split"])
    if not abs(got - root) <= BISECTION_TOL:
        return [f"threshold {got!r} is {abs(got - root):.3e} from reference {root!r}"]
    return []


def check_sweep(path: Path, expect: dict) -> list[str]:
    if path.read_bytes() != (REF_DIR / expect["ref"]).read_bytes():
        return [f"{path.name} differs from ref/{expect['ref']}"]
    return []


def load_json(path: Path) -> object:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
