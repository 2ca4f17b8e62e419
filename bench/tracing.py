"""Outside-in spans around the program's public functions.

`Tracer.installed()` replaces each traced function, in every
``remoments`` module namespace that binds it and in ``states.FAMILIES``,
with a wrapper that records one span per call; leaving the block puts the
originals back.  Rebinding every name is needed because the modules
import each other with ``from .x import y`` and call ``v1``, ``v3`` and
``validate`` as module globals.

A span holds four clock readings: t0 on entry to the wrapper, t1 just
before the call, t2 just after it, t3 when the wrapper is done.  Its
duration is t2 - t1.  The parent sees the whole [t0, t3] as covered by
the child, so the tracer's own hashing and bookkeeping lands in no
function's self time:

    self time = (t2 - t1) - length of the union of its children's [t0, t3]

Spans stay in memory until `aggregate` folds them into per-function
calls, self time, distinct inputs and computed bytes.
"""
from __future__ import annotations

import contextlib
import hashlib
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator

import numpy as np

FAMILY_NAMES = ("rho_d", "rho_eps", "rho_pq", "ghz_w", "noisy_ghz4")

# module -> traced public functions (the layers of the program)
TRACED = {
    "states": FAMILY_NAMES + ("sample_separable", "validate"),
    "realign": ("realign_partial", "realign_bipartite", "moments"),
    "linalg": ("singular_values", "hermitian_eigenvalues", "kron", "trace_norm"),
    "criteria": ("verdict_v1", "verdict_v2", "verdict_v3", "realignment_norm_verdict",
                 "ppt_verdict", "admissible_range", "partial_transpose", "v1", "v3"),
    "cli": ("main", "run_audit", "sweep_rows", "evaluate_criterion", "write_sweep_csv"),
}
LAYERS = tuple(TRACED)


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(repr((p.shape, p.dtype.str)).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.digest()


def _state_key(dm, *rest) -> bytes:
    return _digest(tuple(dm.dims), np.asarray(dm.matrix), *rest)


# Input keys behind `<fn>.useful_frac`: distinct keys / calls.
INPUT_KEYS: dict[str, Callable[..., bytes]] = {
    "realign.moments": lambda rm, *a, **k: _digest(rm.matrix, a, sorted(k.items())),
    "linalg.singular_values": lambda a: _digest(np.asarray(a)),
    "realign.realign_partial": lambda dm, spec: _state_key(dm, str(spec)),
    "states.validate": _state_key,
    **{f"states.{f}": (lambda x: _digest(float(x))) for f in FAMILY_NAMES},
}
# Computed bytes: array sizes, not measured memory traffic.
BYTES = {
    "realign.realign_partial.bytes_out": lambda args, result: result.matrix.nbytes,
    "linalg.singular_values.bytes_in": lambda args, result: np.asarray(args[0]).nbytes,
}
BYTES_OF = {name.rsplit(".", 1)[0]: name for name in BYTES}

# ROADMAP stage -> traced functions whose self time it sums.  The
# Hermitian eigensolver is split by caller: under `states.validate` it is
# validation, under `criteria.ppt_verdict` it is the ppt statistic.
STAGES = {
    "construct": tuple(f"states.{f}" for f in FAMILY_NAMES) + ("states.sample_separable", "linalg.kron"),
    "validate": ("states.validate", "linalg.hermitian_eigenvalues<states.validate"),
    "realign": ("realign.realign_partial", "realign.realign_bipartite", "criteria.partial_transpose"),
    "spectrum": ("linalg.singular_values", "linalg.trace_norm", "realign.moments"),
    "statistic": ("criteria.verdict_v1", "criteria.verdict_v2", "criteria.verdict_v3",
                  "criteria.realignment_norm_verdict", "criteria.ppt_verdict", "criteria.v1",
                  "criteria.v3", "linalg.hermitian_eigenvalues"),
    "gate": ("criteria.admissible_range",),
    "frontend": tuple(f"cli.{f}" for f in TRACED["cli"]),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Span recorder for one process; install it around the calls to trace."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [-1]

    def reset(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock, stack = time.perf_counter, self._stack
        key_of = INPUT_KEYS.get(name)
        bytes_name = BYTES_OF.get(name)
        bytes_of = BYTES[bytes_name] if bytes_name else None
        tracer = self

        def traced(*args, **kwargs):
            t0 = clock()
            key = key_of(*args, **kwargs) if key_of else None
            parent = stack[-1]
            spans = tracer.spans
            sid = len(spans)
            spans.append(None)  # reserve the id; filled on return
            stack.append(sid)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t2 = clock()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, t2, t2, key, 0)
                raise
            t2 = clock()
            stack.pop()
            nbytes = bytes_of(args, result) if bytes_of else 0
            spans[sid] = (name, parent, t0, t1, t2, clock(), key, nbytes)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Bind wrappers in place of every traced function; restore on exit."""
        import remoments.states

        originals = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"remoments.{mod}"]
            for fn in fns:
                originals[id(getattr(module, fn))] = (f"{mod}.{fn}", getattr(module, fn))
        wrappers = {k: self.wrap(name, fn) for k, (name, fn) in originals.items()}
        undo = []
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == "remoments" or n.startswith("remoments.")]
        for ns in namespaces + [remoments.states.FAMILIES]:
            for attr, value in list(ns.items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    undo.append((ns, attr, value))
                    ns[attr] = wrappers[id(value)]
        try:
            yield self
        finally:
            for ns, attr, value in reversed(undo):
                ns[attr] = value


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: duration minus the time its children cover."""
    children = defaultdict(list)
    for name, parent, t0, t1, t2, t3, *_ in spans:
        if parent >= 0:
            children[parent].append((t0, t3))
    return [
        (t2 - t1) - covered(children.get(i, []), t1, t2)
        for i, (name, parent, t0, t1, t2, t3, *_) in enumerate(spans)
    ]


def aggregate(spans: list[tuple]) -> dict:
    """Per-function calls, self_s, distinct inputs and computed bytes, plus stages."""
    fns = {f: {"calls": 0, "self_s": 0.0, "keys": set()} for f in FUNCTIONS}
    stage_s = dict.fromkeys(STAGES, 0.0)
    stage_of = {f: s for s, members in STAGES.items() for f in members}
    nbytes = dict.fromkeys(BYTES, 0)
    for span, own in zip(spans, self_times(spans)):
        name, parent, *_, key, n = span
        rec = fns[name]
        rec["calls"] += 1
        rec["self_s"] += own
        if key is not None:
            rec["keys"].add(key)
        if name in BYTES_OF:
            nbytes[BYTES_OF[name]] += n
        parent_name = spans[parent][0] if parent >= 0 else None
        stage_s[stage_of.get(f"{name}<{parent_name}", stage_of[name])] += own
    for rec in fns.values():
        rec["distinct"] = len(rec.pop("keys"))
    return {"functions": fns, "stages": stage_s, "bytes": nbytes}
