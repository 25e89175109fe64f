import math

import numpy as np
import pytest

import tpshift as tp

# gamma = pi^2 puts the time-domain Gaussian rate at 1.
GAMMA_UNIT_RATE = math.pi**2


@pytest.fixture(scope="session")
def gauss_params():
    return tp.GeneratorParams(1.0, GAMMA_UNIT_RATE)


@pytest.fixture(scope="session")
def m1_params():
    return tp.GeneratorParams(1.0, GAMMA_UNIT_RATE, (0.45,))


@pytest.fixture(scope="session")
def m2_params():
    return tp.GeneratorParams(1.0, GAMMA_UNIT_RATE, (0.45, -0.3))


@pytest.fixture(scope="session")
def fn_factory():
    """Build SISFunctions while sharing tables across one generator's functions."""
    cache = {}

    def make(params, offset, coeffs):
        if params not in cache:
            probe = tp.SISFunction(params, tp.CoeffSeq(0, (1.0,)))
            cache[params] = (probe.table, probe.deriv_table)
        table, deriv = cache[params]
        return tp.SISFunction(params, tp.CoeffSeq(offset, tuple(coeffs)),
                              table=table, deriv_table=deriv)

    return make
