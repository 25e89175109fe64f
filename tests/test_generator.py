import math
import os
import subprocess
import sys
from pathlib import Path

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
        # gauss_rate, time_amplitude or a 1/delta past the largest double.
        (1.0, 5e-324, ()), (1e300, 1e-300, ()), (1.0, 1.0, (5e-324,)),
        (1.0, 1.0, (0.45, -5e-324)),
        # time_amplitude underflowing to 0.
        (1e-300, 1e300, ()),
    ])
    def test_rejects_bad_params(self, c0, gamma, deltas):
        with pytest.raises(ValueError):
            tp.GeneratorParams(c0, gamma, deltas)

    def test_rejects_delta_whose_erfcx_shift_overflows(self):
        # 1/(2a|delta|) is inf at a = 9.9e-300, delta = 1e-10, where the
        # closed form gave g = 0 at x = 0 although g is about 1.77e-150.
        with pytest.raises(ValueError, match="deltas"):
            tp.GeneratorParams(1.0, 1e300, (1e-10,))
        with pytest.raises(ValueError, match="deltas"):
            tp.GeneratorParams(1.0, 1e300, (0.45, -1e-300))

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

    @pytest.mark.parametrize("gamma", [math.pi**2, 0.1, 50.0])
    @pytest.mark.parametrize("delta", [1e-10, -1e-10])
    def test_derivative_at_tiny_delta(self, gamma, delta):
        # g is the Gaussian shifted by delta up to O(delta^2 a): its
        # derivative is -2a(x - delta) G(x - delta) to about 1e-18 times the
        # amplitude, so the 5e-12 contract is checked against that.
        params = tp.GeneratorParams(1.0, gamma, (delta,))
        a, amp = params.gauss_rate, params.time_amplitude
        x = np.concatenate([[0.0, 1e-5, -1e-5], np.linspace(-5.0, 5.0, 401) / math.sqrt(a)])
        want = -2.0 * a * (x - delta) * amp * np.exp(-a * (x - delta) ** 2)
        got = tp.generator.time_deriv_eval(params, x)
        assert np.max(np.abs(got - want)) <= 5e-12 * amp


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


DELTAS_BY_M = {0: (), 1: (0.45,), 2: (0.45, -0.3), 3: (0.45, -0.3, 0.2)}
# Four Gaussian widths, each with m = 0..3 and with the one far shift -45.
TABLE_GENERATORS = ([(gamma, DELTAS_BY_M[m])
                     for gamma in (math.pi**2, 1.0, 0.1, 100.0) for m in range(4)]
                    + [(gamma, (-45.0,)) for gamma in (math.pi**2, 1.0, 0.1, 100.0)])


def _run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(tp.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_scipy():
    # scipy.special and scipy.linalg took most of the package's import time.
    out = _run_python("import sys, tpshift; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_runs_without_scipy():
    # With scipy unimportable, an m = 2 table and a small threshold sweep
    # (closed-form g, design matrices and the sign search's QR) still work.
    out = _run_python(
        "import sys; sys.modules['scipy'] = None; import math, tpshift as tp; "
        "p = tp.GeneratorParams(1.0, math.pi**2, (0.45, -0.3)); "
        "t = tp.build_table(p); "
        "r = tp.run_threshold_experiment(tp.ExperimentConfig(p, (2.5,), 2, 1, (-4, 4), "
        "(-6.0, 6.0), 12)); "
        "print(t.pieces.shape[0] > 0, r.rows[0].successes)")
    assert out.split() == ["True", "2"]


class TestErfcx:
    # Points x >= 0: 0, tiny, 6 (where erfc(-x) rounds to 2), 26-28 (where
    # exp(-x^2) underflows) and the top of the range.
    POINTS = np.concatenate([[0.0, 1e-8, 6.0, 26.0, 27.0, 28.0, 1e300],
                             np.linspace(0.0, 30.0, 3001), np.linspace(26.0, 28.0, 201),
                             np.logspace(-12.0, 300.0, 313)])

    def test_matches_scipy_erfcx(self):
        special = pytest.importorskip("scipy.special")
        x = self.POINTS
        assert np.max(np.abs(tp.generator._erfcx(x) / special.erfcx(x) - 1.0)) <= 2e-15

    def test_complement_of_the_leading_term(self):
        # 1 - sqrt(pi) x erfcx(x): directly where it is large (both forms
        # round, so to a few eps), and for x >= 1e3, where the direct form
        # has lost its digits, against the asymptotic series
        # 1/(2x^2) - 3/(4x^4) + 15/(8x^6), whose next term is below 1e-23.
        special = pytest.importorskip("scipy.special")
        small = np.linspace(0.0, 6.0, 601)
        direct = 1.0 - math.sqrt(math.pi) * small * special.erfcx(small)
        assert np.max(np.abs(tp.generator._erfcx(small, gap=True)[1] - direct)) <= 4e-15
        large = np.logspace(3.0, 150.0, 148)
        inv = 1.0 / (large * large)
        series = inv * (0.5 - inv * (0.75 - 1.875 * inv))
        # An error of O(eps/x) against a value of 1/(2x^2).
        assert np.all(np.abs(tp.generator._erfcx(large, gap=True)[1] - series) <= 4e-15 / large)
        assert tp.generator._erfcx(np.array([math.inf]), gap=True)[1][0] == 0.0

    def test_closed_form_matches_scipy_erfc(self):
        # g of (1, pi^2, (delta,)) is E alone (a = 1); z = 1/(2 delta) - x runs
        # over both branches, the -6 edge and the underflow of exp(-x^2).
        special = pytest.importorskip("scipy.special")
        delta = 0.45
        params = tp.GeneratorParams(1.0, math.pi**2, (delta,))
        a, amp = params.gauss_rate, params.time_amplitude
        u = 1.0 / (2.0 * a * delta)
        x = u - np.concatenate([self.POINTS[self.POINTS <= 30.0],
                                -self.POINTS[self.POINTS <= 8.0],
                                [-6.0 + 1e-12, -6.0 - 1e-12]])
        z = math.sqrt(a) * (u - x)
        with np.errstate(under="ignore"):
            exact = np.where(z >= 0.0, amp * np.exp(-a * x * x) * special.erfcx(z),
                             amp * np.exp(u / (2.0 * delta) - x / delta) * special.erfc(z))
        exact *= math.sqrt(math.pi / a) / (2.0 * delta)
        got = tp.time_eval(params, x)
        assert np.all(np.abs(got - exact) <= 2e-15 * exact)


class TestBuildTable:
    @pytest.mark.parametrize("gamma", [math.pi**2, 1.0])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_midpoint_accuracy(self, m, gamma):
        params = tp.GeneratorParams(1.0, gamma, DELTAS_BY_M[m])
        radius = tp.decay_radius(params, tp.generator.EVAL_TAIL_TOL * params.time_amplitude)
        for deriv, exact in ((False, tp.time_eval), (True, tp.generator.time_deriv_eval)):
            table = tp.build_table(params, deriv=deriv)
            assert table.params == params and table.deriv == deriv
            step = 1.0 / table.cells_per_unit
            n = int(radius / step)
            mids = (np.arange(-n, n) + 0.5) * step
            assert np.max(np.abs(table.eval(mids) - exact(params, mids))) \
                <= 5e-12 * params.time_amplitude

    def test_rebuilding_gives_the_same_table(self, m1_params):
        table = tp.build_table(m1_params)
        deriv = tp.build_table(m1_params, deriv=True)
        again = tp.build_table(tp.GeneratorParams(1.0, m1_params.gamma, (0.45,)))
        assert again.first_cell == table.first_cell
        assert np.array_equal(again.pieces, table.pieces)
        assert not table.deriv and deriv.deriv
        xs = np.linspace(-3.0, 3.0, 13)
        assert np.max(np.abs(deriv.eval(xs) - tp.generator.time_deriv_eval(m1_params, xs))) \
            <= 5e-12 * m1_params.time_amplitude

    def test_shared_table_is_read_only(self, m1_params):
        table = tp.build_table(m1_params)
        with pytest.raises(ValueError):
            table.pieces[0, 0] = 1.0

    def test_outside_range_is_zero_and_bounded(self, m1_params):
        table = tp.build_table(m1_params)
        # The last cell ends at the table half-width.
        beyond = tp.table_half_width(m1_params) + np.array([1e-9, 0.5, 3.0])
        for x in np.concatenate([beyond, -beyond]):
            assert table.eval(x)[()] == 0.0
            # the envelope certifies the dropped magnitude
            env = math.exp(tp.log_envelope(m1_params, x))
            assert env <= tp.generator.EVAL_TAIL_TOL * m1_params.time_amplitude
            assert env >= abs(tp.time_eval(m1_params, x))

    @pytest.mark.parametrize("gamma,deltas", TABLE_GENERATORS)
    def test_half_width_is_the_first_cell_edge_past_the_tolerance(self, gamma, deltas):
        params = tp.GeneratorParams(1.0, gamma, deltas)
        n_per = tp.build_table(params).cells_per_unit
        w = tp.table_half_width(params)
        assert round(w * n_per) == w * n_per

        def log_env(r):
            return max(tp.log_envelope(params, r), tp.log_envelope(params, -r))

        log_tol = math.log(tp.generator.EVAL_TAIL_TOL * params.time_amplitude)
        assert log_env(w - 1.0) <= log_tol
        assert w - 1.0 - 1.0 / n_per >= 0.0
        assert log_env(w - 1.0 - 1.0 / n_per) > log_tol

    @pytest.mark.parametrize("deltas", [DELTAS_BY_M[1], DELTAS_BY_M[2], DELTAS_BY_M[3],
                                        (-45.0,)])
    def test_envelope_dominates_g(self, deltas):
        params = tp.GeneratorParams(1.0, math.pi**2, deltas)
        a, amp = params.gauss_rate, params.time_amplitude
        lo = max((1.0 / d for d in deltas if d < 0), default=-50.0)
        hi = min((1.0 / d for d in deltas if d > 0), default=50.0)
        # Between 0 and sum(delta) the optimal tilt has the sign opposite to x.
        inside = [f * sum(deltas) for f in (0.2, 0.5, 0.8)]
        for x in [-6.0, -3.0, -1.0, 0.0, 1.5, 3.0, 6.0, 9.0] + inside:
            log_env = tp.log_envelope(params, x)
            assert math.exp(log_env) >= abs(tp.time_eval(params, x)) * (1 - 1e-12)
            # No admissible tilt of either sign gives a smaller bound.
            for theta in np.linspace(lo, hi, 203)[1:-1]:
                bound = math.log(amp) + theta * (theta / (4.0 * a) - x) \
                    - sum(math.log1p(-theta * d) for d in deltas)
                assert log_env <= bound + 1e-12 * (1.0 + abs(bound))

    def test_decay_radius_certifies_tolerance(self, m2_params):
        def env(x):
            return math.exp(tp.log_envelope(m2_params, x))

        radius = tp.decay_radius(m2_params, 1e-12)
        assert max(env(radius), env(-radius)) <= 1e-12 * (1 + 1e-9)
        assert max(env(radius * 0.5), env(-radius * 0.5)) > 1e-12

    @pytest.mark.parametrize("gamma", [0.01, 1e-4, 1e-300])
    def test_gaussian_decay_radius_below_one_half_is_closed_form(self, gamma):
        # For m = 0 the envelope is amp * exp(-a x^2) itself.
        params = tp.GeneratorParams(1.0, gamma)
        want = math.sqrt(math.log(params.time_amplitude / 1e-12) / params.gauss_rate)
        assert want < 0.5
        assert tp.decay_radius(params, 1e-12) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("gamma,deltas", [(0.01, (0.001, -0.002))] + TABLE_GENERATORS)
    def test_factored_decay_radius_below_one_half_is_tight(self, gamma, deltas):
        params = tp.GeneratorParams(1.0, gamma, deltas)

        def env(x):
            return max(tp.log_envelope(params, x), tp.log_envelope(params, -x))

        radius = tp.decay_radius(params, 1e-12)
        assert radius < 0.5 or deltas != (0.001, -0.002)
        assert env(radius) <= math.log(1e-12) < env(radius * (1 - 1e-9))

    def test_decay_radius_is_zero_when_tol_is_not_below_the_amplitude(self):
        params = tp.GeneratorParams(1e-20, 1.0)
        assert tp.decay_radius(params, 1e-12) == 0.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
    def test_decay_radius_refuses_tolerance_that_is_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            tp.decay_radius(tp.GeneratorParams(1.0, 1.0), tol)
