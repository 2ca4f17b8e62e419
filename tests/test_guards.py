"""Names and examples that other files rely on, checked where tier-1 sees them.

The benchmark tracer looks every name of `bench/tracing.py`'s TRACED up
with `getattr`, `from remoments import *` reads `__all__`, README's
Quick start promises printed values in its comments, and its command
examples promise exit 0; a rename or a changed number otherwise shows up
only in the traced benchmark run, an import error or a reader's terminal.
"""
import contextlib
import importlib
import importlib.util
import io
import re
import shlex
from pathlib import Path

import pytest

from test_cli import run_cli

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", [f"{mod}.{fn}" for mod, fns in load_tracing().TRACED.items() for fn in fns]
)
def test_traced_names_resolve(name):
    mod, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"remoments.{mod}"), fn))


@pytest.mark.parametrize("name", importlib.import_module("remoments").__all__)
def test_exported_names_resolve(name):
    """Every name `remoments.__all__` lists exists, so a deleted export cannot stay listed."""
    assert hasattr(importlib.import_module("remoments"), name)


# `__all__` is derived from the package's import block: an import added there, or a submodule
# that slipped through, would change what `from remoments import *` binds.
STAR_NAMES = {
    "ENTANGLED", "INCONCLUSIVE", "AdmissibleRange", "CriterionVerdict", "DensityMatrix", "FAMILIES",
    "Interval", "RealignSpec", "StateValidationError", "admissible_range", "discriminant",
    "enumerate_splits", "family_stack", "from_json_dict", "ghz_w", "hermitian_eigenvalues", "kron",
    "load_state", "mixture", "moments", "noisy_ghz4", "partial_transpose", "ppt_verdict", "pure_state",
    "realign_bipartite", "realign_partial", "realignment_norm_verdict", "rho_d", "rho_eps", "rho_pq",
    "sample_separable", "save_state", "separable_stack", "singular_values", "to_json_dict", "trace_norm",
    "v1", "v3", "validate", "validate_stack", "verdict_v1", "verdict_v2", "verdict_v3", "__version__",
}


def test_star_import_binds_the_public_api():
    namespace: dict = {}
    exec("from remoments import *", namespace)
    del namespace["__builtins__"]
    assert len(STAR_NAMES) == 44 and set(namespace) == STAR_NAMES
    assert len(importlib.import_module("remoments").__all__) == 44  # each name listed once


def readme_python_blocks():
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)


def test_readme_examples_print_what_their_comments_say():
    """Each `print(...)  # EXPECTED...` line prints a line starting with EXPECTED.

    EXPECTED is the comment up to its first "..." or ":" ("ENTANGLED
    1.5072876...", "INCONCLUSIVE: PPT misses it", "1.0857... > 1").
    """
    blocks = readme_python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    expected, printed = [], []
    for block in blocks:
        for line in block.splitlines():
            if line.startswith("print(") and "#" in line:
                expected.append(re.split(r"\.\.\.|:", line.split("#", 1)[1].strip())[0])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, namespace)
        printed += out.getvalue().splitlines()
    assert expected == ["ENTANGLED 1.5072876", "INCONCLUSIVE", "1.0857", "1.0853"]
    assert len(printed) == len(expected)
    for want, got in zip(expected, printed):
        assert got.startswith(want), (want, got)


def test_readme_commands_exit_0():
    """README's ```sh block after "Examples:": at least 4 lines, each a `remoments` command; each
    one, run in-process, exits 0."""
    text = (ROOT / "README.md").read_text()
    lines = re.search(r"^Examples:\n.*?^```sh\n(.*?)^```", text, flags=re.S | re.M).group(1).splitlines()
    assert len(lines) >= 4
    assert all(line.startswith("remoments ") for line in lines), lines
    for line in lines:
        assert run_cli(*shlex.split(line)[1:])[0] == 0, line
