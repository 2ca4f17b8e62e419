"""Request streams of the three benchmark workloads.

Every request is an argv for ``remoments.cli.main`` plus what the
reference check needs to judge its output.  Request ``i`` of a workload
is a pure function of (workload, seed, i), so a run can go as far into
the stream as its time allows and two runs with one seed see the same
inputs.  Nothing here imports numpy or the program.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("audit-4q", "audit-qutrit", "curves")

AUDIT_PARAMS = "0.01,0.5,1,5"
AUDITS = {
    # workload: (dims, criteria, states per request)
    "audit-4q": ("2,2,2,2", "realign,v3,ppt", 50),
    "audit-qutrit": ("3,3", "v1,v2,v3,realign,ppt", 200),
}

# The four series of scripts/make_figure_data.py, with the same argv.
RHO_D_MIN = (25.0 - math.sqrt(141.0)) / 50.0
RHO_D_MAX = (25.0 + math.sqrt(141.0)) / 100.0
SWEEPS = (
    ("rho_d_v1.csv", ["--family", "rho_d", "--range", f"{RHO_D_MIN + 1e-6}:{RHO_D_MAX - 1e-6}:0.002",
                      "--criterion", "v1", "--a", "2.0"]),
    ("rho_pq_v1.csv", ["--family", "rho_pq", "--range", "0:0.5:0.005", "--criterion", "v1", "--a", "0.2"]),
    ("ghz_w_v2.csv", ["--family", "ghz_w", "--range", "0:1:0.01", "--criterion", "v2",
                      "--u", "5.0", "--split", "1|2"]),
    ("noisy_ghz4_v3.csv", ["--family", "noisy_ghz4", "--range", "0:1:0.01", "--criterion", "v3",
                           "--v", "0.01", "--split", "1|2"]),
)
# Every (v in [0, 10], split) pair straddles v3 = 1 on the bracket 0:1.
THRESHOLD_SPLITS = ("1|2", "12|3", "12|34", "1|234", "1|23")
# A curves round: each sweep followed by two threshold solves.
CURVES_ROUND = 3 * len(SWEEPS)

# Requests i and i + CYCLE[w] have the same kind and size (num-terms or series).
CYCLE = {"audit-4q": 3, "audit-qutrit": 3, "curves": CURVES_ROUND}
# Requests a traced pass replays; small enough for several passes a run.  Two
# curves rounds repeat the sweeps' argv, so reuse across requests shows in
# the family constructors' and moments' useful_frac.
TRACED_REQUESTS = {"audit-4q": 2, "audit-qutrit": 1, "curves": 2 * CURVES_ROUND}


@dataclass(frozen=True)
class Request:
    """One CLI call.

    `out` names the --out file the executor appends to `argv`; `ops` is
    how many ops the request counts for; `expect` holds the inputs the
    reference check needs.
    """

    kind: str
    argv: tuple[str, ...]
    ops: int
    out: str | None = None
    expect: dict = field(default_factory=dict)


def request(workload: str, seed: int, i: int) -> Request:
    """Request `i` of `workload`'s stream for workload seed `seed`."""
    if workload in AUDITS:
        return _audit_request(workload, seed, i)
    if workload == "curves":
        return _curves_request(seed, i)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _audit_request(workload: str, seed: int, i: int) -> Request:
    dims, criteria, n = AUDITS[workload]
    rng = random.Random(f"{workload}:{seed}")
    base = rng.randrange(1 << 30)
    num_terms = 1 + (rng.randrange(3) + i) % 3
    state_seed = base + i * n  # consecutive requests never share a state
    argv = ("audit", "--dims", dims, "--criteria", criteria, "--params", AUDIT_PARAMS,
            "--num-states", str(n), "--num-terms", str(num_terms), "--seed", str(state_seed))
    expect = {
        "dims": [int(d) for d in dims.split(",")],
        "num_states": n,
        "num_terms": num_terms,
        "seed": state_seed,
        "criteria": criteria.split(","),
        "params": [float(p) for p in AUDIT_PARAMS.split(",")],
    }
    return Request("audit", argv, n, out="audit.json", expect=expect)


def _curves_request(seed: int, i: int) -> Request:
    pos = i % CURVES_ROUND
    if pos % 3 == 0:
        name, flags = SWEEPS[pos // 3]
        return Request("sweep", ("sweep", *flags), 1, out=name, expect={"ref": name})
    rng = random.Random(f"curves:{seed}:{i}")
    v = f"{rng.uniform(0.0, 10.0):.6f}"
    split = rng.choice(THRESHOLD_SPLITS)
    argv = ("threshold", "--family", "noisy_ghz4", "--bracket", "0:1", "--criterion", "v3",
            "--v", v, "--split", split)
    return Request("threshold", argv, 1, expect={"v": float(v), "split": split})
