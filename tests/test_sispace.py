import math

import numpy as np
import pytest

import tpshift as tp
from tpshift.errors import IdenticallyZeroError

GAUSS_RATE_ONE = math.pi**2
DELTAS_BY_M = {0: (), 1: (0.45,), 2: (0.45, -0.3), 3: (0.45, -0.3, 0.2)}


def per_shift_sum(f, x, deriv=False):
    """Reference f(x) (or f'(x)): one table lookup per shift, summed."""
    table = f.deriv_table if deriv else f.table
    out = np.zeros(np.shape(x))
    for k, c in zip(f.coeffs.support_indices(), f.coeffs.coeffs):
        out += c * table.eval(np.asarray(x, dtype=float) - k)
    return out


class TestCoeffSeqAndPointSet:
    def test_coeffs_reject_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            tp.CoeffSeq(0, ())
        with pytest.raises(ValueError):
            tp.CoeffSeq(0, (1.0, math.inf))

    def test_pointset_requires_sorted_distinct_inside_window(self):
        with pytest.raises(ValueError):
            tp.PointSet(points=(1.0, 1.0), window=(0.0, 2.0))
        with pytest.raises(ValueError):
            tp.PointSet(points=(2.0, 1.0), window=(0.0, 3.0))
        with pytest.raises(ValueError):
            tp.PointSet(points=(1.0, 5.0), window=(0.0, 3.0))
        with pytest.raises(ValueError):
            tp.PointSet(points=(), window=(2.0, 2.0))

    def test_pointset_rejects_nonfinite_and_malformed_window(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                tp.PointSet(points=(bad,), window=(-1.0, 1.0))
            with pytest.raises(ValueError):
                tp.PointSet(points=(), window=(-1.0, bad))
        for window in ((1.0,), (0.0, 1.0, 2.0)):
            with pytest.raises(ValueError):
                tp.PointSet(points=(), window=window)
        with pytest.raises(ValueError):
            tp.PointSet.from_json_dict({"points": [0.0], "window": [1]})

    def test_json_round_trips(self):
        c = tp.CoeffSeq(-3, (0.5, -1.0, 2.0))
        assert tp.CoeffSeq.from_json_dict(c.to_json_dict()) == c
        p = tp.PointSet(points=(0.0, 1.5), window=(-1.0, 2.0))
        assert tp.PointSet.from_json_dict(p.to_json_dict()) == p


class TestEvalF:
    def test_single_shift_equals_generator(self, gauss_params, fn_factory):
        sharp = tp.GeneratorParams(1.0, 1.0)
        for params in (gauss_params, sharp):
            f = fn_factory(params, 0, (1.0,))
            for x in (-2.0, -0.3, 0.0, 0.013, 0.7, 1.9):
                assert tp.eval_f(f, x) == pytest.approx(
                    tp.time_eval(params, x), abs=1e-8)

    def test_symmetric_pair_at_midpoint(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0, 1.0))
        assert tp.eval_f(f, 0.5) == pytest.approx(
            2.0 * tp.time_eval(gauss_params, 0.5), abs=1e-8)

    def test_zero_coefficients_give_zero(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (0.0, 0.0, 0.0))
        xs = np.linspace(-3, 3, 11)
        assert np.all(tp.eval_f(f, xs) == 0.0)

    def test_linearity(self, m1_params, fn_factory):
        rng = np.random.default_rng(11)
        for _ in range(5):
            c1 = rng.standard_normal(9)
            c2 = rng.standard_normal(9)
            f1 = fn_factory(m1_params, -4, c1)
            f2 = fn_factory(m1_params, -4, c2)
            fsum = fn_factory(m1_params, -4, c1 + c2)
            xs = rng.uniform(-6, 6, 40)
            assert np.allclose(tp.eval_f(fsum, xs),
                               tp.eval_f(f1, xs) + tp.eval_f(f2, xs), atol=1e-9)


class TestSplineOfF:
    """eval_f / eval_deriv against the per-shift sum they replace."""

    @pytest.mark.parametrize("m,gamma", [(0, GAUSS_RATE_ONE), (1, GAUSS_RATE_ONE),
                                         (2, GAUSS_RATE_ONE), (3, GAUSS_RATE_ONE),
                                         (0, 1.0), (1, 1.0)])
    def test_matches_per_shift_sum(self, m, gamma):
        params = tp.GeneratorParams(1.0, gamma, DELTAS_BY_M[m])
        c = np.random.default_rng(100 + m).standard_normal(12)
        c[3] = 0.0
        f = tp.SISFunction(params, tp.CoeffSeq(-5, tuple(c)))
        tol = 1e-12 * np.sum(np.abs(c))
        lo, hi = f._pieces.x[[0, -1]]
        step = f.table.grid_step
        inside = np.linspace(-7.0, 8.0, 1501)
        edges = np.array([lo, lo + 0.3 * step, hi - 0.3 * step, hi])
        outside = np.array([lo - 0.3 * step, lo - 1.0, hi + 0.3 * step, hi + 1.0, 1e6])
        for xs in (inside, edges, outside):
            assert np.max(np.abs(tp.eval_f(f, xs) - per_shift_sum(f, xs))) <= tol
            assert np.max(np.abs(tp.eval_deriv(f, xs) - per_shift_sum(f, xs, True))) <= tol
        assert np.all(tp.eval_f(f, outside) == 0.0)
        assert np.all(tp.eval_deriv(f, outside) == 0.0)
        assert tp.eval_f(f, 0.37) == pytest.approx(per_shift_sum(f, 0.37), abs=tol)

    def test_sharp_generator_gets_finer_unit_fraction_step(self):
        f = tp.SISFunction(tp.GeneratorParams(1.0, 1.0), tp.CoeffSeq(0, (1.0,)))
        assert f.table.steps_per_unit == math.ceil(125.0 * math.pi)
        assert f.table.grid_step == 1.0 / f.table.steps_per_unit

    def test_table_extent_depends_on_generator_only(self, m1_params):
        small = tp.SISFunction(m1_params, tp.CoeffSeq(-1, (1.0, -0.5, 0.8)))
        large = tp.SISFunction(m1_params, tp.CoeffSeq(-150, (1.0,) * 300))
        assert len(small.table.values) == len(large.table.values)
        assert len(small.deriv_table.values) == len(large.deriv_table.values)
        half = (len(large.table.values) - 1) // 2 * large.table.grid_step
        radius = tp.sispace._tail_radius(m1_params) + 1.0
        assert radius <= half < radius + large.table.grid_step

    def test_deriv_table_built_on_first_derivative_evaluation(self, m1_params, monkeypatch):
        calls = []
        real = tp.sispace.build_table

        def counting(*args, **kwargs):
            calls.append(kwargs.get("deriv", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(tp.sispace, "build_table", counting)
        f = tp.SISFunction(m1_params, tp.CoeffSeq(-2, (1.0, -0.5, 0.8, 0.3)))
        tp.eval_f(f, np.linspace(-3.0, 3.0, 7))
        assert calls == [False]
        tp.eval_deriv(f, 0.5)
        assert calls == [False, True]
        tp.eval_deriv(f, -0.5)
        assert calls == [False, True]

    def test_rejects_table_step_not_unit_fraction(self, gauss_params):
        table = tp.build_table(gauss_params, 10.0, 0.003)
        good = tp.build_table(gauss_params, 10.0, 0.01)
        coeffs = tp.CoeffSeq(0, (1.0,))
        with pytest.raises(ValueError):
            tp.SISFunction(gauss_params, coeffs, table=table, deriv_table=good)
        with pytest.raises(ValueError):
            tp.SISFunction(gauss_params, coeffs, table=good, deriv_table=table)


class TestEvalDeriv:
    def test_even_gaussian_has_flat_origin(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0,))
        assert tp.eval_deriv(f, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_matches_central_difference(self, m1_params, fn_factory):
        rng = np.random.default_rng(3)
        h = 1e-5
        f = fn_factory(m1_params, -5, rng.standard_normal(11))
        for x in rng.uniform(-7, 7, 25):
            fd = (tp.eval_f(f, x + h) - tp.eval_f(f, x - h)) / (2 * h)
            d = tp.eval_deriv(f, x)
            assert abs(fd - d) <= 1e-5 * (1.0 + abs(d))

    def test_zero_coefficients(self, m1_params, fn_factory):
        f = fn_factory(m1_params, 0, (0.0, 0.0))
        assert tp.eval_deriv(f, 1.3) == 0.0


class TestRolleOp:
    def test_pointwise_identity_on_grid(self, m1_params, fn_factory):
        rng = np.random.default_rng(17)
        f = fn_factory(m1_params, -5, rng.standard_normal(11))
        f1 = tp.apply_rolle_op(f, m1_params.deltas[-1])
        assert f1.params.m == 0
        assert f1.coeffs == f.coeffs
        xs = np.linspace(-9, 9, 1000)
        lhs = tp.eval_f(f1, xs)
        rhs = tp.eval_f(f, xs) + m1_params.deltas[-1] * tp.eval_deriv(f, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_two_step_reduction(self, m2_params, fn_factory):
        rng = np.random.default_rng(23)
        f = fn_factory(m2_params, -4, rng.standard_normal(9))
        f1 = tp.apply_rolle_op(f, m2_params.deltas[-1])
        xs = np.linspace(-7, 7, 400)
        rhs = tp.eval_f(f, xs) + m2_params.deltas[-1] * tp.eval_deriv(f, xs)
        assert np.max(np.abs(tp.eval_f(f1, xs) - rhs)) < 1e-7

    def test_rejects_wrong_delta(self, m1_params, fn_factory):
        f = fn_factory(m1_params, 0, (1.0,))
        with pytest.raises(ValueError):
            tp.apply_rolle_op(f, 0.44)

    def test_zero_maps_to_zero(self, m1_params, fn_factory):
        f = fn_factory(m1_params, 0, (0.0, 0.0))
        f1 = tp.apply_rolle_op(f, m1_params.deltas[-1])
        assert np.all(tp.eval_f(f1, np.linspace(-3, 3, 50)) == 0.0)


class TestFindZeros:
    def test_gaussian_pair_zero_at_half(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0, -1.0))
        zeros = tp.find_zeros(f, (-5.0, 6.0))
        assert len(zeros.points) == 1
        assert zeros.points[0] == pytest.approx(0.5, abs=1e-9)

    def test_single_shift_has_no_zeros(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0,))
        zeros = tp.find_zeros(f, (-6.0, 6.0))
        assert zeros.points == ()

    def test_alternating_signs_one_zero_per_gap(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, tuple((-1.0) ** k for k in range(10)))
        zeros = tp.find_zeros(f, (-5.0, 14.0))
        assert len(zeros.points) == 9
        for k, z in enumerate(zeros.points):
            assert k < z < k + 1
        # dense scan oracle at h = 1e-4: same bracket count
        grid = np.arange(-5.0, 14.0, 1e-4)
        vals = tp.eval_f(f, grid)
        brackets = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
        assert len(brackets) == 9
        for z, i in zip(zeros.points, brackets):
            assert grid[i] <= z <= grid[i + 1] + 1e-4

    def test_zero_residual_bound(self, m2_params, fn_factory):
        rng = np.random.default_rng(31)
        c = rng.standard_normal(13)
        f = fn_factory(m2_params, -6, c)
        zeros = tp.find_zeros(f, (-10.0, 10.0))
        cap = 1e-8 * (1.0 + np.max(np.abs(c)))
        for z in zeros.points:
            assert abs(tp.eval_f(f, z)) <= cap

    def test_rejects_degenerate_interval(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0,))
        with pytest.raises(ValueError):
            tp.find_zeros(f, (2.0, 2.0))

    def test_rejects_numerically_zero_function(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (0.0, 0.0))
        with pytest.raises(IdenticallyZeroError):
            tp.find_zeros(f, (-3.0, 3.0))

    def test_wide_interval_is_not_numerically_zero(self, gauss_params, fn_factory):
        # Over 99.9% of this grid lies in the tails, yet the peak is 0.41.
        f = fn_factory(gauss_params, 0, (1.0, -1.0))
        zeros = tp.find_zeros(f, (-1000.0, 1000.0))
        assert zeros.points == pytest.approx((0.5,), abs=1e-9)

    def test_tiny_coefficients_are_not_numerically_zero(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1e-13, -1e-13))
        zeros = tp.find_zeros(f, (-5.0, 5.0))
        assert zeros.points == pytest.approx((0.5,), abs=1e-9)

    @pytest.mark.parametrize("middle", [0.2, -2.0 / math.e * (1.0 - 1e-10)])
    def test_touch_points_do_not_depend_on_scale(self, gauss_params, fn_factory,
                                                 middle):
        # (1, 0.2, 1) has no touch; the second middle coefficient makes f dip
        # to about 4e-11 at x = 1 without crossing.
        scans = [tp.find_zeros(fn_factory(gauss_params, 0, (s, middle * s, s)),
                               (-4.0, 6.0)) for s in (1.0, 1e-12, 1e6)]
        for scan in scans[1:]:
            assert scan.points == scans[0].points
            assert scan.touch_points == scans[0].touch_points
        assert scans[0].touch_points == (() if middle > 0 else (1.0,))

    def test_rejects_oversized_scan_before_allocating(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0, -1.0))
        for interval in ((-1e15, 1e15), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="scan points"):
                tp.find_zeros(f, interval)

    def test_rejects_nonfinite_interval(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0, -1.0))
        for interval in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                tp.find_zeros(f, interval)


class TestInterlacing:
    def test_explicit_interlacing(self):
        zf = tp.PointSet(points=(0.0, 1.0, 2.0), window=(-1.0, 3.0))
        zf1 = tp.PointSet(points=(0.5, 1.5), window=(-1.0, 3.0))
        assert tp.check_interlacing(zf, zf1).ok

    def test_explicit_failure(self):
        zf = tp.PointSet(points=(0.0, 1.0, 2.0), window=(-1.0, 3.0))
        zf1 = tp.PointSet(points=(1.4, 1.5), window=(-1.0, 3.0))
        report = tp.check_interlacing(zf, zf1)
        assert not report.ok
        assert report.missing_nonneg == ((0.0, 1.0),)

    def test_empty_sides_are_vacuous(self):
        empty = tp.PointSet(points=(), window=(-1.0, 1.0))
        assert tp.check_interlacing(empty, empty).ok

    def test_random_rolle_images_interlace(self, m1_params, fn_factory):
        rng = np.random.default_rng(41)
        for _ in range(20):
            c = rng.standard_normal(17)
            f = fn_factory(m1_params, -8, c)
            f1 = tp.apply_rolle_op(f, m1_params.deltas[-1])
            zf = tp.find_zeros(f, (-12.0, 12.0))
            zf1 = tp.find_zeros(f1, (-12.0, 12.0))
            assert tp.check_interlacing(zf, zf1).ok


class TestSegmentInequality:
    def test_empty_sets(self):
        empty = tp.PointSet(points=(), window=(-1.0, 1.0))
        report = tp.segment_inequality(empty, empty, 1.0)
        assert report.lhs == 0.0
        assert report.rhs == 2.0
        assert report.ok

    def test_single_origin_point(self):
        zf = tp.PointSet(points=(0.0,), window=(-1.0, 1.0))
        empty = tp.PointSet(points=(), window=(-1.0, 1.0))
        report = tp.segment_inequality(zf, empty, 3.0)
        assert report.lhs == pytest.approx(3.0)
        assert report.rhs == pytest.approx(6.0)
        assert report.ok

    def test_rejects_nonpositive_t(self):
        empty = tp.PointSet(points=(), window=(-1.0, 1.0))
        with pytest.raises(ValueError):
            tp.segment_inequality(empty, empty, 0.0)

    def test_rejects_nonfinite_t(self):
        empty = tp.PointSet(points=(), window=(-1.0, 1.0))
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError):
                tp.segment_inequality(empty, empty, t)

    def test_random_rolle_images_satisfy_inequality(self, m2_params, fn_factory):
        rng = np.random.default_rng(43)
        for _ in range(10):
            c = rng.standard_normal(21)
            f = fn_factory(m2_params, -10, c)
            f1 = tp.apply_rolle_op(f, m2_params.deltas[-1])
            zf = tp.find_zeros(f, (-14.0, 14.0))
            zf1 = tp.find_zeros(f1, (-14.0, 14.0))
            for t in (5.0, 10.0, 20.0):
                assert tp.segment_inequality(zf, zf1, t).ok


class TestSamplingRatio:
    def test_half_integer_sampling_band(self, gauss_params, fn_factory):
        # sup over the window of |f| against sup over (1/2)Z samples; the
        # ratio sits in a narrow band (recorded bound, not a derived
        # constant -- none is available at finite scale).
        rng = np.random.default_rng(47)
        ratios = []
        for _ in range(100):
            c = rng.standard_normal(25)
            f = fn_factory(gauss_params, -12, c)
            lo, hi = -6.0, 6.0
            grid = np.linspace(lo, hi, 2401)
            samples = np.arange(lo, hi + 0.25, 0.5)
            ratio = np.max(np.abs(tp.eval_f(f, grid))) / \
                np.max(np.abs(tp.eval_f(f, samples)))
            ratios.append(ratio)
        assert min(ratios) >= 1.0 - 1e-12
        assert max(ratios) < 2.5
