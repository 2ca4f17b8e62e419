"""Shared test helpers."""
import argparse

import numpy as np
import pytest

from remoments import DensityMatrix, cli, validate
from remoments.criteria import CRITERIA
from remoments.linalg import SCRATCH, Scratch

# The criterion flags of analyze, sweep and threshold, without "--".
FLAGS = [row.flag for row in CRITERIA.values() if row.flag] + ["split", "party"]


def request(criterion, **flags):
    """`evaluate`'s (criterion, weight, spec, party) for a command given `--criterion criterion` and
    `flags` ("a", "u", "v", "split", "party" as parsed values): what `cli._request` makes of them."""
    assert flags.keys() <= set(FLAGS), flags
    return cli._request(argparse.Namespace(criterion=criterion, **{**dict.fromkeys(FLAGS), **flags}))


def random_density(dims, seed):
    """Full-rank random density matrix: normalized Wishart G G^dag."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return validate(DensityMatrix(dims=tuple(int(x) for x in dims), matrix=m / np.trace(m).real))


def random_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.fixture
def allocations(monkeypatch):
    """`(label, made)`: from a cleared scratch on, each buffer a take allocates appends
    `(label[0], name)` to `made`; a test sets `label[0]` to tell its phases apart."""
    take, label, made = Scratch.take, [0], []

    def counting_take(self, name, shape, dtype=complex):
        before = self.buffers.get(name)
        out = take(self, name, shape, dtype)
        if self.buffers[name] is not before:
            made.append((label[0], name))
        return out

    monkeypatch.setattr(Scratch, "take", counting_take)
    SCRATCH.buffers.clear()
    return label, made
