import math

import numpy as np
import pytest

import tpshift as tp


def inverse_ft_trapezoid(params, x, n=400_001, deriv=False):
    """Independent oracle: dense trapezoid of the inverse Fourier integral.

    With deriv the transform is multiplied by 2*pi*i*xi first, giving g'.
    """
    w = math.sqrt(max(math.log(params.c0 / 1e-16), 0.0) / params.gamma) + 2.0
    xi = np.linspace(-w, w, n)
    vals = tp.ft_eval(params, xi) * np.exp(2j * math.pi * x * xi)
    if deriv:
        vals = vals * (2j * math.pi * xi)
    return complex(np.trapezoid(vals, xi))


def complex_div(a, b):
    """Independent complex division via the conjugate formula."""
    denom = b.real * b.real + b.imag * b.imag
    return complex((a.real * b.real + a.imag * b.imag) / denom,
                   (a.imag * b.real - a.real * b.imag) / denom)


class TestFtEval:
    def test_value_at_zero_is_c0(self):
        for params in [tp.GeneratorParams(1.0, 1.0),
                       tp.GeneratorParams(2.5, 0.7, (0.3,)),
                       tp.GeneratorParams(0.4, 3.0, (1.0, -2.0, 0.1))]:
            assert tp.ft_eval(params, 0.0) == pytest.approx(params.c0, abs=0)

    def test_pure_gaussian(self):
        params = tp.GeneratorParams(1.0, 1.0)
        assert tp.ft_eval(params, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_single_factor_value(self):
        params = tp.GeneratorParams(1.0, 1.0, (1.0 / (2.0 * math.pi),))
        got = tp.ft_eval(params, 1.0)
        expected = complex_div(complex(math.exp(-1.0), 0.0), complex(1.0, 1.0))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(math.exp(-1.0) * complex(1.0, -1.0) / 2.0, rel=1e-14)

    def test_conjugate_symmetry(self, m2_params):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-4, 4, 64)
        assert np.allclose(tp.ft_eval(m2_params, -xs),
                           np.conj(tp.ft_eval(m2_params, xs)), rtol=1e-14, atol=0)

    def test_gaussian_modulus_bound(self, m2_params):
        xs = np.linspace(-5, 5, 301)
        mags = np.abs(tp.ft_eval(m2_params, xs))
        cap = m2_params.c0 * np.exp(-m2_params.gamma * xs**2)
        assert np.all(mags <= cap * (1 + 1e-12))

    def test_reduction_factor_identity(self, m2_params):
        reduced = tp.reduce(m2_params)
        xs = np.linspace(-3, 3, 101)
        lhs = tp.ft_eval(reduced, xs) / (1.0 + 2j * math.pi * m2_params.deltas[-1] * xs)
        assert np.allclose(lhs, tp.ft_eval(m2_params, xs), rtol=1e-14)


class TestParamsValidation:
    @pytest.mark.parametrize("c0,gamma,deltas", [
        (0.0, 1.0, ()), (-1.0, 1.0, ()), (1.0, 0.0, ()), (1.0, -2.0, ()),
        (1.0, 1.0, (0.0,)), (1.0, 1.0, (0.5, 0.0)), (math.nan, 1.0, ()),
        # Coincident shifts: equal, or so close that partial fractions cancel.
        (1.0, 1.0, (0.45, 0.45)), (1.0, 1.0, (0.45, 0.4501, 0.4502)),
    ])
    def test_rejects_bad_params(self, c0, gamma, deltas):
        with pytest.raises(ValueError):
            tp.GeneratorParams(c0, gamma, deltas)

    def test_accepts_opposite_sign_and_separated_deltas(self):
        for deltas in [(0.45, -0.45), (1.0, -2.0, 0.1), (0.45, -0.3, 0.2),
                       (0.6, 0.25, -0.15), (0.45, 0.4499)]:
            assert tp.GeneratorParams(1.0, 1.0, deltas).deltas == deltas

    def test_json_round_trip(self, m2_params):
        again = tp.GeneratorParams.from_json_dict(m2_params.to_json_dict())
        assert again == m2_params

    def test_json_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            tp.GeneratorParams.from_json_dict({"c0": 1, "gamma": 1, "extra": 2})


class TestTimeEval:
    def test_gaussian_closed_form_values(self):
        assert tp.time_eval(tp.GeneratorParams(1.0, math.pi**2), 0.0) == \
            pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
        assert tp.time_eval(tp.GeneratorParams(1.0, 1.0), 0.0) == \
            pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_gaussian_matches_quadrature_oracle(self):
        params = tp.GeneratorParams(1.3, 2.0)
        for x in (0.0, 0.3, -1.1, 2.5):
            oracle = inverse_ft_trapezoid(params, x)
            assert abs(oracle.imag) < 1e-12
            assert tp.time_eval(params, x) == pytest.approx(oracle.real, abs=1e-11)

    @pytest.mark.parametrize("deltas", [(0.45,), (0.45, -0.3), (0.6, 0.25, -0.15)])
    def test_factored_matches_quadrature_oracle(self, deltas):
        params = tp.GeneratorParams(1.0, math.pi**2, deltas)
        for x in (0.0, 0.7, -1.3, 3.1):
            oracle = inverse_ft_trapezoid(params, x)
            assert tp.time_eval(params, x) == pytest.approx(oracle.real, abs=1e-9)

    @pytest.mark.parametrize("deltas", [(0.45,), (0.45, -0.3), (0.6, 0.25, -0.15)])
    def test_factored_derivative_matches_quadrature_oracle(self, deltas):
        params = tp.GeneratorParams(1.0, math.pi**2, deltas)
        for x in (0.0, 0.7, -1.3, 3.1):
            oracle = inverse_ft_trapezoid(params, x, deriv=True)
            assert tp.generator.time_deriv_eval(params, x) == \
                pytest.approx(oracle.real, abs=1e-12)

    def test_near_cap_deltas_match_quadrature_oracle(self):
        # Same-sign shifts 1e-4 apart: partial-fraction weights sum to about
        # 9e3, just under MAX_WEIGHT_SUM, so cancellation costs about 1e-12.
        params = tp.GeneratorParams(1.0, math.pi**2, (0.45, 0.4499))
        for x in (-0.8, 0.0, 0.7, 3.1):
            assert tp.time_eval(params, x) == pytest.approx(
                inverse_ft_trapezoid(params, x).real, abs=1e-10)
            assert tp.generator.time_deriv_eval(params, x) == pytest.approx(
                inverse_ft_trapezoid(params, x, deriv=True).real, abs=1e-10)

    @pytest.mark.parametrize("fixture", ["gauss_params", "m1_params", "m2_params"])
    def test_values_finite_and_nonnegative_on_wide_grid(self, fixture, request):
        params = request.getfixturevalue(fixture)
        vals = tp.time_eval(params, np.linspace(-40.0, 40.0, 8001))
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)
        assert np.max(vals) > 0.0

    def test_scalar_and_array_agree(self, m2_params):
        xs = np.array([-2.0, 0.0, 0.3, 5.0])
        assert tp.time_eval(m2_params, xs).tolist() == \
            [tp.time_eval(m2_params, float(x)) for x in xs]
        assert isinstance(tp.time_eval(m2_params, 0.3), float)

    def test_derivative_matches_finite_difference(self, m1_params):
        h = 1e-5
        for x in (0.4, -0.9, 1.7):
            fd = (tp.time_eval(m1_params, x + h) - tp.time_eval(m1_params, x - h)) / (2 * h)
            got = tp.generator.time_deriv_eval(m1_params, x)
            assert got == pytest.approx(fd, abs=1e-8)


class TestReduce:
    def test_drops_last_delta(self):
        params = tp.GeneratorParams(1.0, 1.0, (0.5, -0.3))
        assert tp.reduce(params) == tp.GeneratorParams(1.0, 1.0, (0.5,))

    def test_reaches_gaussian(self):
        params = tp.GeneratorParams(2.0, 3.0, (1.0,))
        assert tp.reduce(params) == tp.GeneratorParams(2.0, 3.0)

    def test_rejects_gaussian_case(self):
        with pytest.raises(ValueError):
            tp.reduce(tp.GeneratorParams(1.0, 1.0))


class TestBuildTable:
    def test_gaussian_midpoint_accuracy(self, gauss_params):
        table = tp.build_table(gauss_params, 10.0, 0.01)
        mids = np.arange(-3.0, 3.0, 0.1) + 0.005
        for x in mids:
            assert table.eval(x)[()] == pytest.approx(
                tp.time_eval(gauss_params, x), abs=1e-8)

    def test_factored_midpoint_accuracy(self, m1_params):
        table = tp.build_table(m1_params, 10.0, 0.01)
        mids = np.arange(-2.0, 4.0, 0.25) + 0.005
        for x in mids:
            assert table.eval(x)[()] == pytest.approx(
                tp.time_eval(m1_params, x), abs=1e-8)

    def test_rejects_bad_geometry(self, gauss_params):
        with pytest.raises(ValueError):
            tp.build_table(gauss_params, 10.0, 0.0)
        with pytest.raises(ValueError):
            tp.build_table(gauss_params, 0.5, 0.01)

    def test_tracked_interpolation_error_dominates_actual(self, gauss_params):
        table = tp.build_table(gauss_params, 10.0, 0.01)
        bound = table.interpolation_error_bound()
        assert bound < 1e-7
        mids = np.arange(-2.0, 2.0, 0.07) + 0.005
        actual = max(abs(table.eval(x)[()] - tp.time_eval(gauss_params, x))
                     for x in mids)
        assert actual <= bound * 1.5

    def test_outside_range_is_zero_and_bounded(self, m1_params):
        table = tp.build_table(m1_params, 5.0, 0.01)
        assert table.eval(7.0)[()] == 0.0
        # the envelope certifies the dropped magnitude
        assert table.tail_bound(7.0) >= abs(tp.time_eval(m1_params, 7.0))

    def test_envelope_dominates_g(self, m2_params):
        env = tp.tail_bound(m2_params)
        for x in (-6.0, -3.0, -1.0, 0.0, 1.5, 3.0, 6.0, 9.0):
            assert env(x) >= abs(tp.time_eval(m2_params, x)) * (1 - 1e-12)

    def test_decay_radius_certifies_tolerance(self, m2_params):
        env = tp.tail_bound(m2_params)
        radius = env.decay_radius(1e-12)
        assert max(env(radius), env(-radius)) <= 1e-12 * (1 + 1e-9)
        assert max(env(radius * 0.5), env(-radius * 0.5)) > 1e-12
