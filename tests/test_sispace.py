import math
import tracemalloc

import numpy as np
import pytest

import tpshift as tp
from tpshift import cli
from tpshift.errors import IdenticallyZeroError
from tpshift.sispace import MAX_RADIUS, MIN_RADIUS

GAUSS_RATE_ONE = math.pi**2
DELTAS_BY_M = {0: (), 1: (0.45,), 2: (0.45, -0.3), 3: (0.45, -0.3, 0.2)}


def per_shift_sum(f, x, deriv=False):
    """Reference f(x) (or f'(x)): one table lookup per shift, summed."""
    table = f.deriv_table if deriv else f.table
    out = np.zeros(np.shape(x))
    for k, c in zip(f.coeffs.support_indices(), f.coeffs.coeffs):
        out += c * table.eval(np.asarray(x, dtype=float) - k)
    return out


def slice_add_shift_sum(table, first, weights):
    """Reference piece sum: weight k times the table rows shifted by k*N, added."""
    n_per = table.cells_per_unit
    width = table.pieces.shape[0]
    n_pieces = (len(weights) - 1) * n_per + width
    coef = np.zeros((n_pieces, table.pieces.shape[1]))
    for k, w in enumerate(weights):
        if w != 0.0:
            coef[k * n_per:k * n_per + width] += w * table.pieces
    return first * n_per + table.first_cell, coef


def scan_grid(f, lo, hi):
    """Reference scan grid: lo, the multiples of 1/(N*q) strictly inside, and hi."""
    n_per = f.table.cells_per_unit
    res = n_per * math.ceil(1.0 / (n_per * tp.sispace.SCAN_STEP))
    inner = np.arange(math.floor(lo * res), math.ceil(hi * res) + 1) / res
    return np.concatenate([[lo], inner[(inner > lo) & (inner < hi)], [hi]])


def scan_points(f, lo, hi):
    """The scan grid of find_zeros on [lo, hi] and f's values there, from _scan's
    values and the (start, res) that place point i, other than the ends, at
    (start + i)/res."""
    vals, start, res = tp.sispace._scan(f, lo, hi)
    grid = np.concatenate([[lo], (start + np.arange(1, vals.size - 1)) / res, [hi]])
    return grid, vals, res


def bisection_scan(f, interval):
    """Reference zero scan: the find_zeros grid, each bracket bisected through eval_f."""
    grid = scan_grid(f, *interval)
    n = grid.size
    vals = tp.eval_f(f, grid)
    sign = np.sign(vals)
    scale = np.max(np.abs(vals))
    zeros = [grid[i] for i in range(1, n - 1)
             if vals[i] == 0.0 and sign[i - 1] * sign[i + 1] < 0.0]
    idx = np.array([i for i in range(n - 1) if sign[i] * sign[i + 1] < 0.0
                    and max(abs(vals[i]), abs(vals[i + 1])) >= 1e-12 * scale], dtype=int)
    a, b = grid[idx], grid[idx + 1]
    for _ in range(40):
        mid = 0.5 * (a + b)
        right = np.sign(tp.eval_f(f, mid)) == sign[idx]
        a, b = np.where(right, mid, a), np.where(right, b, mid)
    zeros = sorted(zeros + (0.5 * (a + b)).tolist())
    touches = [grid[i] for i in range(1, n - 1)
               if 0.0 < abs(vals[i]) < tp.sispace.TOUCH_TOL * scale
               and abs(vals[i]) <= min(abs(vals[i - 1]), abs(vals[i + 1]))
               and sign[i - 1] * sign[i] >= 0.0 and sign[i] * sign[i + 1] >= 0.0]
    return zeros, touches


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
            cli._point_set({"points": [0.0], "window": [1]}, "points")

    def test_json_round_trips(self):
        c = tp.CoeffSeq(-3, (0.5, -1.0, 2.0))
        assert cli._coeff_seq(c.to_json_dict()) == c
        p = tp.PointSet(points=(0.0, 1.5), window=(-1.0, 2.0))
        assert cli._point_set(p.to_json_dict(), "points") == p


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
        first, coef = f._pieces
        step = 1.0 / f.table.cells_per_unit
        lo, hi = first * step, (first + coef.shape[0]) * step
        inside = np.linspace(-7.0, 8.0, 1501)
        edges = np.array([lo, lo + 0.3 * step, hi - 0.3 * step, hi])
        outside = np.array([lo - 0.3 * step, lo - 1.0, hi + 0.3 * step, hi + 1.0, 1e6])
        for xs in (inside, edges, outside):
            assert np.max(np.abs(tp.eval_f(f, xs) - per_shift_sum(f, xs))) <= tol
            assert np.max(np.abs(tp.eval_deriv(f, xs) - per_shift_sum(f, xs, True))) <= tol
        assert np.all(tp.eval_f(f, outside) == 0.0)
        assert np.all(tp.eval_deriv(f, outside) == 0.0)
        assert tp.eval_f(f, 0.37) == pytest.approx(per_shift_sum(f, 0.37), abs=tol)

    @pytest.mark.parametrize("gamma,deltas",
                             [(gamma, DELTAS_BY_M[m])
                              for gamma in (GAUSS_RATE_ONE, 1.0, 0.1, 100.0) for m in range(4)]
                             + [(GAUSS_RATE_ONE, (-45.0,))])
    def test_matches_closed_form_sum(self, gamma, deltas):
        # The evaluation contract: error at most 5e-12 * amplitude * sum|c_k|.
        params = tp.GeneratorParams(1.0, gamma, deltas)
        rng = np.random.default_rng(300 + len(deltas))
        c = rng.standard_normal(12)
        f = tp.SISFunction(params, tp.CoeffSeq(-5, tuple(c)))
        xs = np.concatenate([np.linspace(*f.support_window(), 4001), rng.uniform(-8, 8, 2000)])
        shifted = xs[:, None] - f.coeffs.support_indices()
        tol = 5e-12 * params.time_amplitude * np.sum(np.abs(c))
        for evaluate, exact in ((tp.eval_f, tp.time_eval),
                                (tp.eval_deriv, tp.generator.time_deriv_eval)):
            assert np.max(np.abs(evaluate(f, xs) - exact(params, shifted) @ c)) <= tol

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("gamma", [GAUSS_RATE_ONE, 1.0, 0.1])
    def test_piece_product_matches_slice_adds(self, m, gamma):
        params = tp.GeneratorParams(1.0, gamma, DELTAS_BY_M[m])
        rng = np.random.default_rng(200 + m)
        interior = rng.standard_normal(12)
        interior[[3, 4, 8]] = 0.0
        # A run of zeros longer than the table: pieces no weight reaches.
        gap = int(2 * tp.table_half_width(params)) + 2
        cases = [(3, (1.7,)), (-6, tuple(interior)), (-4, (1.0,) + (0.0,) * gap + (-0.5,))]
        tables = [tp.build_table(params), tp.build_table(params, deriv=True),
                  # 6N and 5.5N pieces: a whole number of blocks, and a padded last block
                  *(tp.TimeDomainTable(params, False, 4, rng.standard_normal((2 * h, 10)))
                    for h in (12, 11))]
        for table in tables:
            for first, weights in cases:
                got_first, got = table.shift_sum(first, weights)
                want_first, coef = slice_add_shift_sum(table, first, weights)
                assert got_first == want_first
                assert got.shape == coef.shape and got.flags.c_contiguous
                assert np.array_equal(got == 0.0, coef == 0.0)
                tol = 1e-14 * np.sum(np.abs(weights)) * np.max(np.abs(table.pieces))
                assert np.max(np.abs(got - coef)) <= tol
        assert tables[0].cells_per_unit > 4 or gamma == GAUSS_RATE_ONE

    def test_sharp_generator_gets_finer_unit_fraction_step(self):
        params = tp.GeneratorParams(1.0, 1.0)
        f = tp.SISFunction(params, tp.CoeffSeq(0, (1.0,)))
        n_per = f.table.cells_per_unit
        assert n_per == 4 * math.ceil(math.pi)
        # The rows are the cells of width 1/N that tile [-w, w].
        assert f.table.pieces.shape[0] == -2 * f.table.first_cell \
            == round(2 * tp.table_half_width(params) * n_per)
        edges = np.arange(f.table.first_cell, -f.table.first_cell) / n_per
        assert np.allclose(f.table.eval(edges), f.table.pieces[:, -1], rtol=0, atol=1e-15)

    def test_table_extent_depends_on_generator_only(self, m1_params):
        small = tp.SISFunction(m1_params, tp.CoeffSeq(-1, (1.0, -0.5, 0.8)))
        large = tp.SISFunction(m1_params, tp.CoeffSeq(-150, (1.0,) * 300))
        assert small.table.pieces.shape == large.table.pieces.shape
        assert small.deriv_table.pieces.shape == large.deriv_table.pieces.shape
        half = -large.table.first_cell / large.table.cells_per_unit
        assert large.table.pieces.shape[0] == -2 * large.table.first_cell
        radius = tp.decay_radius(m1_params, tp.generator.EVAL_TAIL_TOL
                                 * m1_params.time_amplitude) + 1.0
        assert radius <= half < radius + 1.0 / large.table.cells_per_unit
        assert half == pytest.approx(tp.table_half_width(m1_params), abs=1e-12)

    @pytest.mark.parametrize("m,gamma", [(1, GAUSS_RATE_ONE), (2, GAUSS_RATE_ONE),
                                         (3, GAUSS_RATE_ONE), (0, 100.0)])
    def test_f_is_exactly_zero_outside_support_window(self, m, gamma):
        params = tp.GeneratorParams(1.0, gamma, DELTAS_BY_M[m])
        f = tp.SISFunction(params, tp.CoeffSeq(-3, (1.0, -0.5, 0.8, 0.3)))
        lo, hi = f.support_window()
        outside = np.array([lo - 0.5, lo - 1e-9, hi + 1e-9, hi + 0.5])
        inside = np.array([lo + 1e-6, hi - 1e-6])
        for evaluate in (tp.eval_f, tp.eval_deriv):
            assert np.all(evaluate(f, outside) == 0.0)
            assert np.all(evaluate(f, inside) != 0.0)

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

    def test_rejects_table_of_another_generator(self, gauss_params, m1_params):
        coeffs = tp.CoeffSeq(0, (1.0,))
        g1, d1 = tp.build_table(m1_params), tp.build_table(m1_params, deriv=True)
        mismatched = [
            {"table": tp.build_table(gauss_params)},  # the m = 0 g for an m = 1 function
            {"table": d1},  # g' passed as g
            {"table": g1, "deriv_table": g1},  # g passed as g'
            {"table": g1, "deriv_table": tp.build_table(gauss_params, deriv=True)},
        ]
        for tables in mismatched:
            with pytest.raises(ValueError):
                tp.SISFunction(m1_params, coeffs, **tables)
        f = tp.SISFunction(m1_params, coeffs, table=g1, deriv_table=d1)
        assert f.table is g1 and f.deriv_table is d1


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

    @pytest.mark.parametrize("s", [1e-170, 1e-200, 1e300, 1e308])
    def test_extreme_coefficients_keep_their_crossing(self, gauss_params, fn_factory, s):
        # Products of neighbouring scan values underflow to 0 or overflow
        # here, and at 1e308 the sum of |c_k| overflows too.
        zeros = tp.find_zeros(fn_factory(gauss_params, 0, (s, -s)), (-5.0, 6.0))
        assert zeros.points == pytest.approx((0.5,), abs=1e-9)
        assert zeros.touch_points == ()

    def test_tail_floor_stays_finite_near_the_largest_double(self, gauss_params,
                                                             fn_factory):
        # sum|c_k| is inf here; the floor is formed around max|c_k| instead.
        f = fn_factory(gauss_params, 0, (1.7e308, 1.7e308))
        assert math.isfinite(f._tail_floor)
        zeros = tp.find_zeros(f, (-5.0, 6.0))
        assert zeros.points == ()
        assert zeros.touch_points == ()

    def test_exact_zeros_on_the_grid(self, gauss_params, fn_factory):
        # Cell rows of P(x) = (x + 1)(x - 0.5)(x - 2) in u = 4x - j: P is
        # exactly 0 at three cell edges, each between scan values of
        # opposite signs, and changes sign nowhere else.  The zero at 0.5
        # lies where f goes from >= 0 to < 0, the other two the other way.
        f = fn_factory(gauss_params, 0, (1.0,))
        assert f.table.cells_per_unit == 4
        poly = np.poly1d((-1.0, 0.5, 2.0), r=True)
        rows = [np.poly1d([0.25, j / 4.0]) for j in range(-16, 16)]
        coef = np.array([np.concatenate([np.zeros(6), poly(u).coeffs]) for u in rows])
        f.__dict__["_pieces"] = (-16, coef)
        zeros = tp.find_zeros(f, (-3.0, 3.0))
        assert zeros.points == (-1.0, 0.5, 2.0)
        assert zeros.touch_points == ()
        assert bisection_scan(f, (-3.0, 3.0)) == ([-1.0, 0.5, 2.0], [])

    def test_piece_refinement_matches_bisection(self, fn_factory):
        rng = np.random.default_rng(53)
        for i in range(50):
            params = tp.GeneratorParams(1.0, GAUSS_RATE_ONE, DELTAS_BY_M[i % 4])
            f = fn_factory(params, -20, rng.standard_normal(40))
            zeros = tp.find_zeros(f, (-24.0, 24.0))
            ref_zeros, ref_touches = bisection_scan(f, (-24.0, 24.0))
            assert len(zeros.points) == len(ref_zeros)
            assert list(zeros.touch_points) == ref_touches
            assert np.max(np.abs(np.subtract(zeros.points, ref_zeros))) \
                <= tp.sispace.BISECT_TOL

    def test_piece_refinement_in_one_cell_and_on_its_edge(self):
        # P(x) = (x - 2)(x - 4.625)(x - 7.25) on unit cells, each in its local
        # u = x - j; P is exactly 0 at the cell edge x = 2, where the first
        # bracket ends.
        roots = (2.0, 4.625, 7.25)
        poly = np.poly1d(roots, r=True)
        cells = np.array([1.0, 4.0, 7.0])
        rows = np.array([[poly.deriv(k)(j) / math.factorial(k) for k in range(3, -1, -1)]
                         for j in cells])
        a, b = np.array([1.5, 4.5, 7.0]), np.array([2.0, 4.75, 7.5])
        got = tp.sispace._refine_on_pieces(rows, cells, 1, a, b, poly(a), poly(b))
        assert np.max(np.abs(got - roots)) <= tp.sispace.BISECT_TOL
        # Cells of width 1/4, rows in u = 4x - j; two roots on right cell edges.
        a, b = np.array([1.75, 4.5, 7.0]), np.array([2.0, 4.75, 7.25])
        cells = 4.0 * a
        rows = np.array([[poly.deriv(k)(j / 4.0) / math.factorial(k) / 4.0**k
                          for k in range(3, -1, -1)] for j in cells])
        got = tp.sispace._refine_on_pieces(rows, cells, 4, a, b, poly(a), poly(b))
        assert np.max(np.abs(got - roots)) <= tp.sispace.BISECT_TOL

    def test_newton_step_out_of_the_bracket_is_a_bisection(self):
        # P(x) = (x + 0.1)(x - 0.75)(x - 1.02) on the unit cell [0, 1): the
        # secant point of [0, 1] is about 0.933, where P < 0 < P(0), so the
        # bracket shrinks to [0, 0.933], and Newton's step from there lands
        # near 1.131, outside it and past the root 1.02 outside [0, 1].
        poly = np.poly1d((-0.1, 0.75, 1.02), r=True)
        a, b = np.array([0.0]), np.array([1.0])
        t0 = a + (b - a) * poly(a) / (poly(a) - poly(b))
        assert poly(t0) < 0.0 < poly(a)
        assert t0 - poly(t0) / poly.deriv()(t0) > t0
        got = tp.sispace._refine_on_pieces(np.array([poly.coeffs]), np.array([0.0]), 1,
                                           a, b, poly(a), poly(b))
        assert a[0] <= got[0] <= b[0]
        assert abs(got[0] - 0.75) <= tp.sispace.BISECT_TOL

    @pytest.mark.parametrize("gamma", [GAUSS_RATE_ONE, 1.0, 0.1])
    def test_scan_grid_is_aligned_with_the_cells(self, gamma):
        params = tp.GeneratorParams(1.0, gamma, (0.45,))
        f = tp.SISFunction(params, tp.CoeffSeq(-4, tuple(np.random.default_rng(7)
                                                         .standard_normal(9))))
        n_per = f.table.cells_per_unit
        q = math.ceil(1.0 / (n_per * tp.sispace.SCAN_STEP))
        lo, hi = f.support_window()
        grid, vals, res = scan_points(f, lo - 1.37, hi + 0.61)
        assert res == n_per * q
        # The whole grid minus the points outside f's cells, where f is 0.
        first, coef = f._pieces
        full = scan_grid(f, lo - 1.37, hi + 0.61)
        keep = (full >= first / n_per) & (full < (first + coef.shape[0]) / n_per)
        keep[[0, -1]] = True
        assert np.array_equal(grid, full[keep])
        assert np.max(np.diff(grid[1:-1])) <= tp.sispace.SCAN_STEP
        # Every cell edge is a grid point, and there f is the row's constant term.
        edges = np.flatnonzero(np.isin(grid, np.arange(first, first + coef.shape[0]) / n_per))
        assert edges.size == coef.shape[0]
        assert np.array_equal(vals[edges], coef[:, -1])
        assert np.all(np.diff(edges) == q)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(vals - tp.eval_f(f, grid))) <= 1e-14 * scale

    @pytest.mark.parametrize("interval", [(-3.37, 5.11), (-3.25, 5.0)])
    def test_scan_ends_off_and_on_the_grid(self, m1_params, fn_factory, interval):
        f = fn_factory(m1_params, -6, np.random.default_rng(11).standard_normal(13))
        wide = tp.find_zeros(f, (-10.0, 10.0)).as_array()
        # Ends between the zeros nearest to the interval's ends and the grid
        # points outside them: the brackets from lo and to hi hold those zeros.
        res = 4 * 13
        z_lo = wide[np.argmin(np.abs(wide - interval[0]))]
        z_hi = wide[np.argmin(np.abs(wide - interval[1]))]
        near = (z_lo - 0.3 * (z_lo - math.floor(z_lo * res) / res),
                z_hi + 0.3 * (math.ceil(z_hi * res) / res - z_hi))
        for window in (interval, near):
            zeros = tp.find_zeros(f, window)
            want = wide[(wide > window[0]) & (wide < window[1])]
            assert len(zeros) == len(want) >= 2
            assert np.max(np.abs(zeros.as_array() - want)) <= tp.sispace.BISECT_TOL
            ref_zeros, ref_touches = bisection_scan(f, window)
            assert np.max(np.abs(np.subtract(zeros.points, ref_zeros))) \
                <= tp.sispace.BISECT_TOL
            assert list(zeros.touch_points) == ref_touches
        assert zeros.points[0] == pytest.approx(z_lo, abs=tp.sispace.BISECT_TOL)
        assert zeros.points[-1] == pytest.approx(z_hi, abs=tp.sispace.BISECT_TOL)

    def test_sharp_generator_scans_two_points_per_cell(self, fn_factory):
        params = tp.GeneratorParams(1.0, 0.1)
        f = fn_factory(params, -6, np.random.default_rng(5).standard_normal(12))
        assert f.table.cells_per_unit == 40
        grid, _, _ = scan_points(f, -7.0, 6.0)
        assert np.allclose(np.diff(grid), 1.0 / 80.0, rtol=0, atol=1e-14)
        assert np.max(np.diff(grid)) <= tp.sispace.SCAN_STEP
        assert grid.size == 13 * 80 + 1
        zeros = tp.find_zeros(f, (-8.0, 8.0))
        ref_zeros, ref_touches = bisection_scan(f, (-8.0, 8.0))
        assert len(zeros) == len(ref_zeros) > 0
        assert np.max(np.abs(np.subtract(zeros.points, ref_zeros))) <= tp.sispace.BISECT_TOL
        assert list(zeros.touch_points) == ref_touches
        # 1.5e6 points at SCAN_STEP but 2.4e6 at the grid's step 1/80: refused,
        # before the grid is built.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="scan points"):
                tp.find_zeros(f, (-15000.0, 15000.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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


# Every public function taking a radius, chord radius t or lattice step
# alpha, keyed by name: (argument named in the error, call with that value).
RADIUS_ENTRY_POINTS = {
    "beurling_lower_profile": (
        "radii", lambda pts, ctx, v: tp.beurling_lower_profile(pts, [v])),
    "circ_density_direct": ("radii", lambda pts, ctx, v: tp.circ_density_direct(pts, [v])),
    "circ_density_lattice.radii": (
        "radii", lambda pts, ctx, v: tp.circ_density_lattice(pts, 1.0, [v])),
    "circ_density_lattice.alpha": (
        "alpha", lambda pts, ctx, v: tp.circ_density_lattice(pts, v, [1.0])),
    "check_lemma1.radii": ("radii", lambda pts, ctx, v: tp.check_lemma1(pts, [1.0], [v])),
    "check_lemma1.alphas": ("alphas", lambda pts, ctx, v: tp.check_lemma1(pts, [v], [1.0])),
    "circ_subadditivity": ("radii", lambda pts, ctx, v: tp.circ_subadditivity(pts, pts, [v])),
    "DensityProfile": (
        "radii", lambda pts, ctx, v: tp.DensityProfile("circ_direct", (v,), (0.0,))),
    "circ_inner_integral": ("r", lambda pts, ctx, v: tp.circ_inner_integral(0.5, v)),
    "pair_moduli.alpha": ("alpha", lambda pts, ctx, v: tp.pair_moduli(pts, v, 1.0)),
    "pair_moduli.r_max": ("r_max", lambda pts, ctx, v: tp.pair_moduli(pts, 1.0, v)),
    "verify_base_case": ("radii", lambda pts, ctx, v: tp.verify_base_case(ctx, [v])),
    "count_zeros_disk": ("t", lambda pts, ctx, v: tp.count_zeros_disk(ctx, v)),
    "jensen_lhs": ("r", lambda pts, ctx, v: tp.jensen_lhs(ctx, v)),
    "jensen_rhs": ("r", lambda pts, ctx, v: tp.jensen_rhs(ctx, v)),
    "safe_radius": ("r", lambda pts, ctx, v: tp.safe_radius(ctx, v)),
    "segment_inequality": ("t", lambda pts, ctx, v: tp.segment_inequality(pts, pts, v)),
}


@pytest.fixture(scope="module")
def radius_inputs():
    pts = tp.PointSet(points=(-1.0, 0.0, 2.0), window=(-3.0, 3.0))
    f = tp.SISFunction(tp.GeneratorParams(1.0, GAUSS_RATE_ONE), tp.CoeffSeq(0, (1.0, -1.0)))
    return pts, tp.build_context(f)


class TestRadiusDomain:
    @pytest.mark.parametrize("value", [0.0, 1e-300, math.nan, math.inf, 1e200])
    @pytest.mark.parametrize("entry", sorted(RADIUS_ENTRY_POINTS))
    def test_every_entry_point_refuses_values_outside_the_domain(self, radius_inputs,
                                                                 entry, value):
        name, call = RADIUS_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=rf"^{name} must lie in \["):
            call(*radius_inputs, value)

    def test_domain_ends_are_accepted_and_their_neighbours_refused(self, radius_inputs):
        pts, _ = radius_inputs
        for inside, outside in ((MIN_RADIUS, 0.0), (MAX_RADIUS, math.inf)):
            assert tp.segment_inequality(pts, pts, inside).ok
            with pytest.raises(ValueError, match="^t must lie in"):
                tp.segment_inequality(pts, pts, math.nextafter(inside, outside))
