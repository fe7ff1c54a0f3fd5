"""What the benchmark's tracer (perfbench/tracer.py) needs from dmlab.

The tracer wraps module attributes and reads a few fields of their results;
a missing attribute is skipped and its per-layer metrics silently read 0.
These checks catch such a drift in the tests instead of in a benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from dmlab.enumerator import enumerate_regular
from dmlab.qw import build_wreath
from dmlab.spectral import nullspace_basis

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = [(module, attr) for module, attr, _, _ in _load_tracer().WRAPPED]


@pytest.mark.parametrize("module,attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_enumerate_regular_is_a_generator_function():
    # the tracer wraps generator functions differently from plain ones
    assert inspect.isgeneratorfunction(enumerate_regular)


def test_nullspace_basis_has_dimension():
    # the tracer sums basis.dimension into spectral.kernel_dim_sum
    basis = nullspace_basis(build_wreath(3))
    assert isinstance(basis.dimension, int)
    assert basis.dimension == len(basis.vectors)
