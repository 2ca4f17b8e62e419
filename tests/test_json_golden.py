"""Golden bytes of the JSON that `analyze --out` and `audit --out` write.

The layout, key order, nulls and number forms are pinned byte for byte.
Numbers that are not integers must agree to 1e-12, because their last
bits follow the LAPACK build.
"""
import json
import math
import re

import pytest

from remoments import rho_d, rho_pq, verdict_v1
from test_cli import run_cli

# A number in `json.dumps(..., indent=2)` output: a value after a key, or a list item.
NUMBER = re.compile(r"(?<=: |  )-?\d[\d.eE+-]*(?=,?\n)")
INTEGER = re.compile(r"-?\d+")

GOLDEN = [
    # v1 at a weight outside the range: a null statistic, and a null (inf) upper end.
    (
        ("analyze", "--family", "rho_pq", "--param", "0.2071067811", "--criterion", "v1", "--a", "1"),
        """\
{
  "criterion": "v1",
  "parameter": 1.0,
  "statistic": null,
  "threshold": 1.0,
  "outcome": "INCONCLUSIVE",
  "admissible": {
    "intervals": [
      {
        "lo": 0.0,
        "hi": 0.21077270347003313,
        "lo_closed": false,
        "hi_closed": true
      },
      {
        "lo": 11.907632631355755,
        "hi": null,
        "lo_closed": true,
        "hi_closed": false
      }
    ],
    "discriminant": 0.018821468635235393,
    "degenerate": false
  },
  "note": "parameter outside admissible range",
  "dims": [
    4,
    4
  ],
  "state": {
    "family": "rho_pq",
    "param": 0.2071067811
  },
  "split": null,
  "party": null,
  "moments": {
    "t1": 0.17157287523280992,
    "t2": 0.0059794417147733345
  },
  "discriminant": 0.018821468635235393
}
""",
    ),
    # v2 at an admissible weight, with the same range.
    (
        ("analyze", "--family", "rho_pq", "--param", "0.2071067811", "--criterion", "v2", "--u", "0.2", "--split", "1|2"),
        """\
{
  "criterion": "v2",
  "parameter": 0.2,
  "statistic": 1.507287665224753,
  "threshold": 1.0,
  "outcome": "ENTANGLED",
  "admissible": {
    "intervals": [
      {
        "lo": 0.0,
        "hi": 0.21077270347003313,
        "lo_closed": false,
        "hi_closed": true
      },
      {
        "lo": 11.907632631355755,
        "hi": null,
        "lo_closed": true,
        "hi_closed": false
      }
    ],
    "discriminant": 0.018821468635235393,
    "degenerate": false
  },
  "note": null,
  "dims": [
    4,
    4
  ],
  "state": {
    "family": "rho_pq",
    "param": 0.2071067811
  },
  "split": "1|2",
  "party": null,
  "moments": {
    "t1": 0.17157287523280992,
    "t2": 0.0059794417147733345
  },
  "discriminant": 0.018821468635235393
}
""",
    ),
    # v3: no range.
    (
        ("analyze", "--family", "rho_d", "--param", "0.3", "--criterion", "v3", "--v", "1", "--split", "1|2"),
        """\
{
  "criterion": "v3",
  "parameter": 1.0,
  "statistic": 0.9213552670523777,
  "threshold": 1.0,
  "outcome": "INCONCLUSIVE",
  "admissible": null,
  "note": null,
  "dims": [
    3,
    3
  ],
  "state": {
    "family": "rho_d",
    "param": 0.3
  },
  "split": "1|2",
  "party": null,
  "moments": {
    "t1": 0.46859999999999996,
    "t2": 0.07568586
  },
  "discriminant": -0.0011888910880703887
}
""",
    ),
    # realign on three parties: no weight, no moments.
    (
        ("analyze", "--family", "ghz_w", "--param", "0.5", "--criterion", "realign", "--split", "1|23"),
        """\
{
  "criterion": "realign",
  "parameter": null,
  "statistic": 1.3942910521228242,
  "threshold": 1.0,
  "outcome": "ENTANGLED",
  "admissible": null,
  "note": null,
  "dims": [
    2,
    2,
    2
  ],
  "state": {
    "family": "ghz_w",
    "param": 0.5
  },
  "split": "1|23",
  "party": null,
  "moments": null,
  "discriminant": null
}
""",
    ),
    # ppt: the party as the parameter.
    (
        ("analyze", "--family", "rho_pq", "--param", "0.2", "--criterion", "ppt", "--party", "2"),
        """\
{
  "criterion": "ppt",
  "parameter": 2.0,
  "statistic": -0.006066017177982108,
  "threshold": 0.0,
  "outcome": "ENTANGLED",
  "admissible": null,
  "note": null,
  "dims": [
    4,
    4
  ],
  "state": {
    "family": "rho_pq",
    "param": 0.2
  },
  "split": null,
  "party": 2,
  "moments": null,
  "discriminant": null
}
""",
    ),
    # The audit: v1 at weight 5 admits no sample, so its worst statistic is null.
    (
        ("audit", "--dims", "2,2", "--criteria", "v1,v3,ppt", "--params", "2,5", "--num-states", "2", "--seed", "1"),
        """\
{
  "config": {
    "dims": [
      2,
      2
    ],
    "num_states": 2,
    "num_terms": 3,
    "seed": 1,
    "criteria": [
      "v1",
      "v3",
      "ppt"
    ],
    "params": [
      2.0,
      5.0
    ]
  },
  "entries": [
    {
      "criterion": "v1",
      "parameter": 2.0,
      "split": "1|2",
      "evaluated": 2,
      "violations": 2,
      "worst_statistic": 1.4870815355044318,
      "worst_seed": 2
    },
    {
      "criterion": "v1",
      "parameter": 5.0,
      "split": "1|2",
      "evaluated": 0,
      "violations": 0,
      "worst_statistic": null,
      "worst_seed": null
    },
    {
      "criterion": "v3",
      "parameter": 2.0,
      "split": "1|2",
      "evaluated": 2,
      "violations": 0,
      "worst_statistic": 0.9130802321715353,
      "worst_seed": 1
    },
    {
      "criterion": "v3",
      "parameter": 5.0,
      "split": "1|2",
      "evaluated": 2,
      "violations": 0,
      "worst_statistic": 0.8971818630805016,
      "worst_seed": 1
    },
    {
      "criterion": "ppt",
      "parameter": 1.0,
      "split": null,
      "evaluated": 2,
      "violations": 0,
      "worst_statistic": -1.1385597046312818e-16,
      "worst_seed": 1
    },
    {
      "criterion": "ppt",
      "parameter": 2.0,
      "split": null,
      "evaluated": 2,
      "violations": 0,
      "worst_statistic": -1.1385597046312818e-16,
      "worst_seed": 1
    }
  ]
}
""",
    ),
]


def assert_same_json(text, golden):
    assert NUMBER.sub("#", text) == NUMBER.sub("#", golden)
    for got, want in zip(NUMBER.findall(text), NUMBER.findall(golden)):
        if INTEGER.fullmatch(want) or INTEGER.fullmatch(got):
            assert got == want
        else:
            assert math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=1e-14), (got, want)


@pytest.mark.parametrize("argv, golden", GOLDEN, ids=["v1", "v2", "v3", "realign", "ppt", "audit"])
def test_out_bytes(tmp_path, argv, golden):
    path = tmp_path / "out.json"
    code, _, err = run_cli(*argv, "--out", str(path))
    assert (code, err) == (0, "")
    assert_same_json(path.read_bytes().decode("utf-8"), golden)


@pytest.mark.parametrize("dm", [rho_d(0.3), rho_pq(0.2071067811)], ids=["admissible", "outside"])
def test_integral_weight_gives_the_float_dict(dm):
    as_int, as_float = verdict_v1(dm, 1).to_dict(), verdict_v1(dm, 1.0).to_dict()
    assert as_int == as_float
    assert json.dumps(as_int) == json.dumps(as_float)
