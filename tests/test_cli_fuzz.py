"""Every argv the CLI can receive ends in exit code 0, 2 or 3, never a traceback.

`--state` is drawn from a corpus of state files, most of them malformed,
and `--out` from a writable path or a path in a missing directory; both
live in a temporary directory that argv names as TMP.
"""
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from test_cli import run_cli

FAMILY_NAMES = ("rho_d", "rho_eps", "rho_pq", "ghz_w", "noisy_ghz4")

NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1e308, 0.5, 1.0, 1e8, 1e10]),
)
SPLITS = st.sampled_from(
    ["1|2", "12|3", "1|23", "12|34", "1|234", "13|24", "1|1", "1|5", "|2", "0|1", "1|2|3", "a|b", "１|2", "²|1"]
)


BELL = [[[0.5 if i in (0, 3) and j in (0, 3) else 0.0, 0.0] for j in range(4)] for i in range(4)]
STATE_FILES = {
    "bell.json": json.dumps({"dims": [2, 2], "matrix": BELL}),
    "deep.json": "[" * 100_000 + "]" * 100_000,  # json.load raises RecursionError
    "huge_dims.json": json.dumps({"dims": [1000, 1000], "matrix": []}),  # a 14.6 TiB matrix
    "nan.json": json.dumps({"dims": [2, 2], "matrix": [[[math.nan, 0.0]] * 4] * 4}),
    "fractional_dims.json": json.dumps({"dims": [2.5, 2], "matrix": BELL}),
    "string_entry.json": json.dumps({"dims": [2, 2], "matrix": [["00"] + BELL[0][1:]] + BELL[1:]}),
    "huge_int.json": json.dumps({"dims": [2, 2], "matrix": [[[10**400, 0]] + BELL[0][1:]] + BELL[1:]}),  # no float
}
DIRECTORY = "a_directory"
STATES = st.sampled_from(sorted(STATE_FILES) + [DIRECTORY, "absent.json"])
OUTS = st.sampled_from(["out.txt", "missing_dir/out.txt"])


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in STATE_FILES.items():
        (root / name).write_text(text)
    (root / DIRECTORY).mkdir()
    return root


def num(x: float) -> str:
    return repr(x)


def out_flag(draw):
    return ["--out", "TMP/" + draw(OUTS)] if draw(st.booleans()) else []


@st.composite
def criterion_flags(draw):
    argv = ["--criterion", draw(st.sampled_from(["v1", "v2", "v3", "realign", "ppt", "v9"]))]
    for flag in ("--a", "--u", "--v"):
        if draw(st.booleans()):
            argv += [flag, num(draw(NUMBERS))]
    if draw(st.booleans()):
        argv += ["--split", draw(SPLITS)]
    if draw(st.booleans()):
        argv += ["--party", str(draw(st.integers(-1, 5)))]
    return argv


def family(draw):
    return ["--family", draw(st.sampled_from(FAMILY_NAMES + ("nope",)))]


@st.composite
def analyze_argv(draw):
    if draw(st.booleans()):
        argv = ["analyze", "--state", "TMP/" + draw(STATES)]
    else:
        argv = ["analyze", *family(draw)]
        if draw(st.booleans()):
            argv += ["--param", num(draw(NUMBERS))]
    return argv + draw(criterion_flags()) + out_flag(draw)


@st.composite
def sweep_argv(draw):
    lo = draw(NUMBERS)
    hi = lo + draw(st.sampled_from([0.0, 0.3, 1.0, 2.5, -1.0]))
    step = draw(st.sampled_from([0.1, 0.5, 1.0, 0.0, -0.1, math.nan, math.inf, 1e-12]))
    spec = draw(st.sampled_from([f"{num(lo)}:{num(hi)}:{num(step)}", "0:1", "a:b:c", "1:2:3:4"]))
    return ["sweep", *family(draw), "--range", spec] + draw(criterion_flags()) + out_flag(draw)


@st.composite
def threshold_argv(draw):
    lo = draw(NUMBERS)
    hi = lo + draw(st.sampled_from([0.5, 1.0, -1.0, 0.0, math.nan]))
    spec = draw(st.sampled_from([f"{num(lo)}:{num(hi)}", "0:1", "0-1", "x:1"]))
    return ["threshold", *family(draw), "--bracket", spec] + draw(criterion_flags())


@st.composite
def audit_argv(draw):
    dims = draw(st.sampled_from(["2,2", "2,3", "3,3", "2,2,2", "2", "2,x", "1,2", "0,2", "9,9", ""]))
    argv = ["audit", "--dims", dims, "--num-states", str(draw(st.integers(-1, 4)))]
    if draw(st.booleans()):
        argv += ["--num-terms", str(draw(st.integers(-1, 3)))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-2, 10**6)))]
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(["v1", "v2", "v3", "realign", "ppt", "nope"]),
                              min_size=0, max_size=3))
        argv += ["--criteria", ",".join(names)]
    if draw(st.booleans()):
        argv += ["--params", ",".join(num(x) for x in draw(st.lists(NUMBERS, max_size=3)))]
    return argv + out_flag(draw)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(analyze_argv(), sweep_argv(), threshold_argv(), audit_argv()))
# Both end offsets 0.0: no crossing, so the bracket is rejected before any path is predicted.
@example(["threshold", "--family", "rho_eps", "--bracket", "1e12:1e13", "--criterion", "realign",
          "--split", "1|2"])
# Ends that sum past the largest float.
@example(["threshold", "--family", "rho_eps", "--bracket", "1e308:1.7e308", "--criterion", "realign",
          "--split", "1|2"])
@example(["threshold", "--family", "rho_eps", "--bracket", "1e-300:1e308", "--criterion", "realign",
          "--split", "1|2"])
# A pure product whose T2 is computed a few ulp above T1^2, at a weight that amplifies it.
@example(["audit", "--dims", "2,2", "--num-terms", "1", "--criteria", "v1", "--params", "1e8"])
def test_exit_code_is_0_2_or_3(tmp, argv):
    argv = [a.replace("TMP", str(tmp), 1) if a.startswith("TMP/") else a for a in argv]
    code, _, err = run_cli(*argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
