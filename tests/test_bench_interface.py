"""The library interface that the benchmark in perfbench/ relies on.

perfbench/ is only read here.  A library change that renames a traced
function, or that breaks the tables the workloads share, fails these tests
instead of only the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import tpshift as tp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_traced_names_resolve(spans):
    for mod_name, attr in list(spans.SPANS) + list(spans.COUNTERS):
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
            f"{mod_name}.{attr}"
    assert callable(tp.TimeDomainTable.eval)


def test_traced_functions_are_shared_module_globals():
    # The tracer replaces a function in every module that imported it, so
    # table builds and evaluations are seen from the modules that call them.
    assert tp.sispace.build_table is tp.generator.build_table
    assert tp.jensen.eval_f is tp.sispace.eval_f


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_shared_tables_evaluate_like_own_tables(workloads, m):
    params = workloads._params(m)
    table, deriv = workloads._shared_tables(params, 3)
    coeffs = tp.CoeffSeq(-4, tuple(np.random.default_rng(m).standard_normal(9)))
    shared = tp.SISFunction(params, coeffs, table=table, deriv_table=deriv)
    own = tp.SISFunction(params, coeffs)
    xs = np.linspace(-12.0, 12.0, 601)
    assert np.array_equal(tp.eval_f(shared, xs), tp.eval_f(own, xs))
    assert np.array_equal(tp.eval_deriv(shared, xs), tp.eval_deriv(own, xs))
