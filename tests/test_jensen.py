import math

import numpy as np
import pytest

import tpshift as tp
import tpshift.jensen as jensen
from tpshift.errors import OrderDetectionError
from tpshift.jensen import ContourSampler, _stable_terms


def alternating_function(fn_factory, params, rng, n_shifts=40):
    # Magnitudes near 1 keep every crossing solidly real; wider bands let
    # near-touch crossings lift into off-lattice complex pairs.
    mags = rng.uniform(0.9, 1.1, n_shifts)
    c = mags * (-1.0) ** np.arange(n_shifts)
    return fn_factory(params, -n_shifts // 2, c)


class TestLogAbs:
    def test_single_gaussian_on_imaginary_axis(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0,))
        a = gauss_params.gauss_rate
        for y in (0.5, 1.0, 3.0, 8.0):
            got = tp.log_abs_f_complex(f, 1j * y)
            want = math.log(gauss_params.time_amplitude) + a * y * y
            assert got == pytest.approx(want, abs=1e-12)

    def test_real_axis_consistency(self, gauss_params, fn_factory):
        rng = np.random.default_rng(2)
        f = fn_factory(gauss_params, -5, rng.standard_normal(11))
        for x in rng.uniform(-6, 6, 40):
            val = tp.eval_f(f, float(x))
            if abs(val) > 1e-6:
                assert tp.log_abs_f_complex(f, complex(x)) == \
                    pytest.approx(math.log(abs(val)), abs=1e-7)

    def test_growth_bound_on_grid(self, gauss_params, fn_factory):
        rng = np.random.default_rng(3)
        f = fn_factory(gauss_params, -5, rng.standard_normal(11))
        a = gauss_params.gauss_rate
        xs = np.linspace(-6, 6, 41)
        ys = np.linspace(-4, 4, 31)
        zg = (xs[:, None] + 1j * ys[None, :]).ravel()
        vals = tp.log_abs_f_complex(f, zg) - a * zg.imag**2
        log_cf = np.max(vals[np.isfinite(vals)])
        assert math.isfinite(log_cf)
        assert np.all(vals[np.isfinite(vals)] <= log_cf + 1e-12)

    def test_rejects_factored_generator(self, m1_params, fn_factory):
        f = fn_factory(m1_params, 0, (1.0,))
        with pytest.raises(ValueError):
            tp.log_abs_f_complex(f, 1j)


class TestBuildContext:
    def test_nonvanishing_origin_order_zero(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0, 0.5))
        ctx = tp.build_context(f)
        assert ctx.order == 0
        assert ctx.log_c1 == pytest.approx(-math.log(abs(tp.eval_f(f, 0.0))), abs=1e-7)
        # F(0) = 1 by construction
        assert ctx.log_c1 + tp.log_abs_f_complex(f, 0.0 + 0j) == pytest.approx(0.0, abs=1e-9)

    def test_antisymmetric_coefficients_order_one(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, -3, (1.0, 0.5, -0.2, 0.0, 0.2, -0.5, -1.0))
        assert tp.eval_f(f, 0.0) == pytest.approx(0.0, abs=1e-10)
        ctx = tp.build_context(f)
        assert ctx.order == 1

    def test_zero_function_rejected(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (0.0, 0.0))
        with pytest.raises(ValueError):
            tp.build_context(f)

    def test_real_zeros_exclude_origin(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, -3, (1.0, 0.5, -0.2, 0.0, 0.2, -0.5, -1.0))
        ctx = tp.build_context(f)
        assert all(abs(p) > 1e-8 for p in ctx.real_zeros.points)

    def test_ambiguous_order_raises(self, gauss_params, fn_factory):
        # f(0) = 4.15e-10 lies between the noise floor and the detection
        # tolerance and f'(0) = 0 by symmetry, so order 2 would be detected
        # and F misnormalized by a factor of about 1e9.
        c = 2.0 * math.exp(-1.0) * (1.0 - 1e-9)
        f = fn_factory(gauss_params, -1, (1.0, -c, 1.0))
        value = abs(jensen._derivatives_at_zero(f, 0)[0])
        assert jensen.ORDER_NOISE_FLOOR < value < jensen.ORDER_DETECT_TOL
        with pytest.raises(OrderDetectionError, match="ambiguous"):
            tp.build_context(f)


class TestCountZeros:
    def test_zero_free_function(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0,))
        ctx = tp.build_context(f)
        for t in (0.5, 2.0, 5.0):
            count = tp.count_zeros_disk(ctx, t)
            assert count.total == 0 and count.lattice == 0 and count.extra == 0

    def test_pair_difference_hand_count(self, fn_factory):
        # gamma = 1 puts the vertical period at 1/pi; the single real zero at
        # 1/2 extends to 0.25 + k^2/pi^2 <= 1 for |k| <= 2, five zeros.
        params = tp.GeneratorParams(1.0, 1.0)
        f = fn_factory(params, 0, (1.0, -1.0))
        ctx = tp.build_context(f)
        assert ctx.real_zeros.points == pytest.approx((0.5,), abs=1e-9)
        count = tp.count_zeros_disk(ctx, 1.0)
        assert (count.total, count.lattice, count.extra) == (5, 5, 0)
        assert int(count) == 5

    def test_small_disk_is_empty(self, fn_factory):
        params = tp.GeneratorParams(1.0, 1.0)
        f = fn_factory(params, 0, (1.0, -1.0))
        ctx = tp.build_context(f)
        assert tp.count_zeros_disk(ctx, 0.4).total == 0

    def test_nondecreasing_in_t(self, gauss_params, fn_factory):
        rng = np.random.default_rng(7)
        f = alternating_function(fn_factory, gauss_params, rng, 20)
        ctx = tp.build_context(f)
        counts = [tp.count_zeros_disk(ctx, tp.safe_radius(ctx, t)).total
                  for t in (1.0, 2.0, 4.0, 6.0)]
        assert counts == sorted(counts)

    def test_safe_radius_matches_all_pairs_search(self, gauss_params, fn_factory):
        rng = np.random.default_rng(53)
        f = alternating_function(fn_factory, gauss_params, rng, 40)
        ctx = tp.build_context(f)
        for r in (0.3, 2.0, 4.0, 7.9, 8.0):
            mods = tp.pair_moduli(ctx.real_zeros, ctx.lattice_step, r + 0.25 + 1.0)
            cands = r + np.arange(0, 2501) * 1e-4
            dist = np.min(np.abs(mods[None, :] - cands[:, None]), axis=1)
            assert tp.safe_radius(ctx, r) == cands[int(np.argmax(dist))]

    def test_rejects_zero_on_circle(self, fn_factory):
        params = tp.GeneratorParams(1.0, 1.0)
        f = fn_factory(params, 0, (1.0, -1.0))
        ctx = tp.build_context(f)
        with pytest.raises(ValueError):
            tp.count_zeros_disk(ctx, 0.5)


class TestJensenSides:
    def test_lhs_zero_free(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0,))
        ctx = tp.build_context(f)
        assert tp.jensen_lhs(ctx, 3.0) == 0.0

    def test_lhs_single_zero_closed_form(self, gauss_params, fn_factory):
        # vertical period is pi for a = 1, so below |z| < sqrt(. + pi^2) only
        # the real zero at 1/2 contributes: lhs = log(r/rho)/r^2.
        f = fn_factory(gauss_params, 0, (1.0, -1.0))
        ctx = tp.build_context(f)
        r = 2.0
        assert tp.jensen_lhs(ctx, r) == pytest.approx(
            math.log(r / 0.5) / r**2, abs=1e-9)

    def test_lhs_matches_zero_sum_oracle(self, gauss_params, fn_factory):
        rng = np.random.default_rng(11)
        f = alternating_function(fn_factory, gauss_params, rng, 20)
        ctx = tp.build_context(f)
        r = 3.0
        step = math.pi / ctx.gauss_rate
        total = 0.0
        for lam in ctx.real_zeros.points:
            k = 0
            while lam * lam + (step * k) ** 2 <= r * r:
                total += math.log(r / math.sqrt(lam**2 + (step * k) ** 2))
                if k > 0:
                    total += math.log(r / math.sqrt(lam**2 + (step * k) ** 2))
                k += 1
        assert tp.jensen_lhs(ctx, r) == pytest.approx(total / r**2, rel=1e-12)

    def test_lhs_is_scaled_lattice_density(self, gauss_params, fn_factory):
        # The vertical zero lattice is the planar lattice of the real zeros at
        # alpha = pi/a, so the zero sum is (a/2) times its circular density.
        rng = np.random.default_rng(29)
        f = alternating_function(fn_factory, gauss_params, rng, 40)
        ctx = tp.build_context(f)
        a = ctx.gauss_rate
        for r in (2.0, 4.2, 8.0):
            dens = tp.circ_density_lattice(ctx.real_zeros, math.pi / a, [r]).values[0]
            assert abs(tp.jensen_lhs(ctx, r) - 0.5 * a * dens) <= 1e-14

    def test_rhs_harmonic_mean_value_zero_free(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0,))
        ctx = tp.build_context(f)
        for r in (0.5, 2.0, 5.0):
            assert abs(tp.jensen_rhs(ctx, r)) * r * r < 1e-6

    def test_rhs_small_zero_free_disk(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0, 0.7))
        ctx = tp.build_context(f)
        assert abs(tp.jensen_rhs(ctx, 0.1)) * 0.01 < 1e-6

    def test_identity_lhs_equals_rhs(self, gauss_params, fn_factory):
        rng = np.random.default_rng(13)
        f = alternating_function(fn_factory, gauss_params, rng, 30)
        ctx = tp.build_context(f)
        for r0 in (2.0, 4.0):
            r = tp.safe_radius(ctx, r0)
            count = tp.count_zeros_disk(ctx, r)
            assert count.extra == 0
            assert abs(tp.jensen_lhs(ctx, r) - tp.jensen_rhs(ctx, r)) < 2e-6


def same_bits(got, want):
    return all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def fresh_contour_average(ctx, r, nt=64, tol=1e-7):
    # jensen_rhs with every grid evaluated from scratch.
    prev = None
    while True:
        theta = np.linspace(0.0, 2.0 * math.pi, nt, endpoint=False)
        vals = (ctx.log_c1 - ctx.order * math.log(r)
                + tp.log_abs_f_complex(ctx.f, r * np.exp(1j * theta))
                + 0.5 * ctx.gauss_rate * r * r * np.cos(2.0 * theta))
        cur = float(np.mean(vals)) / (r * r)
        if prev is not None and abs(cur - prev) < tol:
            return cur
        prev, nt = cur, 2 * nt


class TestContourSampler:
    @staticmethod
    def fresh(f, r, n, closed):
        theta = np.linspace(0.0, 2.0 * math.pi, n + 1)
        return _stable_terms(f, r * np.exp(1j * (theta if closed else theta[:-1])))

    def test_nested_grids_match_fresh_evaluation(self, gauss_params, fn_factory):
        rng = np.random.default_rng(37)
        f = alternating_function(fn_factory, gauss_params, rng, 40)
        sampler = ContourSampler(f)
        # The contour average's coarse grids first, then the winding count's
        # closed grids, coarser views, one more doubling, a grid that is not
        # nested, and another radius.
        steps = [(4.05, 64, False), (4.05, 128, False), (4.05, 512, True),
                 (4.05, 1024, True), (4.05, 256, False), (4.05, 64, True),
                 (4.05, 2048, False), (4.05, 96, False), (4.05, 384, True),
                 (2.3, 512, True), (2.3, 64, False)]
        finest = [64, 128, 512, 1024, 1024, 1024, 2048, 96, 384, 512, 512]
        for (r, n, closed), top in zip(steps, finest):
            assert same_bits(sampler.grid(r, n, closed), self.fresh(f, r, n, closed))
            assert sampler.n == top

    def test_term_blocks_do_not_change_values(self, gauss_params, fn_factory, monkeypatch):
        rng = np.random.default_rng(41)
        f = alternating_function(fn_factory, gauss_params, rng, 40)
        zs = 3.7 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 1001))
        whole = _stable_terms(f, zs)
        grid = _stable_terms(f, zs[:1000].reshape(8, 125))
        point = _stable_terms(f, zs[17])
        monkeypatch.setattr(jensen, "MAX_TERM_BLOCK", 7 * 40 + 3)
        assert same_bits(_stable_terms(f, zs), whole)
        assert same_bits(_stable_terms(f, zs[:1000].reshape(8, 125)), grid)
        assert same_bits(_stable_terms(f, zs[17]), point)
        assert same_bits(grid, [v[:1000].reshape(8, 125) for v in whole])

    def test_each_contour_point_evaluated_once(self, gauss_params, fn_factory, monkeypatch):
        rng = np.random.default_rng(43)
        f = alternating_function(fn_factory, gauss_params, rng, 40)
        ctx = tp.build_context(f)
        points = []
        stable_terms = jensen._stable_terms

        def counting(f, z):
            points.append(np.size(z))
            return stable_terms(f, z)

        monkeypatch.setattr(jensen, "_stable_terms", counting)
        for r in (2.0, 8.0):
            points.clear()
            row = tp.verify_base_case(ctx, [r]).rows[0]
            assert row.samples >= 1024
            assert sum(points) == row.samples + 1

    def test_standalone_calls_match_fresh_evaluation(self, gauss_params, fn_factory):
        rng = np.random.default_rng(47)
        f = alternating_function(fn_factory, gauss_params, rng, 40)
        for r0 in (2.0, 4.0, 8.0):
            r = tp.safe_radius(tp.build_context(f), r0)
            want = fresh_contour_average(tp.build_context(f), r)
            rhs_first = tp.build_context(f)
            assert tp.jensen_rhs(rhs_first, r) == want
            count_after = tp.count_zeros_disk(rhs_first, r)
            count_first = tp.build_context(f)
            count = tp.count_zeros_disk(count_first, r)
            assert tp.jensen_rhs(count_first, r) == want
            assert count == count_after
            assert count.extra == 0 and count.total == count.lattice


class TestLatticeInvariance:
    def test_zero_set_repeats_vertically(self, gauss_params, fn_factory):
        rng = np.random.default_rng(17)
        f = alternating_function(fn_factory, gauss_params, rng, 24)
        ctx = tp.build_context(f)
        step = math.pi / ctx.gauss_rate
        assert len(ctx.real_zeros.points) > 5
        for lam in ctx.real_zeros.points[:6]:
            for k in range(-3, 4):
                _, inner = _stable_terms(f, lam + 1j * step * k)
                rel = abs(complex(inner[()]))
                assert math.log10(rel + 1e-300) < -6.0


class TestGrowthFitAndBaseCase:
    def test_growth_fit_stabilizes(self, gauss_params, fn_factory):
        rng = np.random.default_rng(19)
        f = alternating_function(fn_factory, gauss_params, rng, 20)
        ctx = tp.build_context(f)
        c4 = tp.fit_growth_constant(ctx, 4.0)
        c6 = tp.fit_growth_constant(ctx, 6.0)
        c8 = tp.fit_growth_constant(ctx, 8.0)
        assert c4 <= c6 + 1e-12 <= c8 + 2e-12
        assert c8 - c6 < 0.5

    def test_certified_bound_holds_off_any_grid(self, gauss_params, fn_factory):
        # log_c is fixed by the coefficients alone; check it at random points
        # no growth fit has seen, inside and outside the unit disk.
        rng = np.random.default_rng(31)
        a = gauss_params.gauss_rate
        order_zero = alternating_function(fn_factory, gauss_params, rng, 20)
        order_one = fn_factory(gauss_params, -3, (1.0, 0.5, -0.2, 0.0, 0.2, -0.5, -1.0))
        zs = np.concatenate([rng.uniform(0.01, 1.0, 200), rng.uniform(1.0, 12.0, 800)]) \
            * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 1000))
        for f, order in ((order_zero, 0), (order_one, 1)):
            ctx = tp.build_context(f)
            assert ctx.order == order
            log_r = np.log(np.abs(zs))
            log_big_f = (ctx.log_c1 - order * log_r + tp.log_abs_f_complex(f, zs)
                         + 0.5 * a * (zs * zs).real)
            assert np.all(log_big_f - 0.5 * a * np.abs(zs) ** 2
                          <= ctx.log_c - order * log_r + 1e-12)

    def test_base_case_chain(self, gauss_params, fn_factory):
        rng = np.random.default_rng(23)
        f = alternating_function(fn_factory, gauss_params, rng, 40)
        ctx = tp.build_context(f)
        report = tp.verify_base_case(ctx, [2.0, 4.0, 8.0])
        assert len(report.rows) == 3
        a = ctx.gauss_rate
        log_c = ctx.log_c1 + math.log(gauss_params.time_amplitude
                                      * np.sum(np.abs(f.coeffs.coeffs)))
        assert report.log_c == pytest.approx(log_c)
        for row in report.rows:
            assert row.extra_zeros == 0
            assert row.samples >= 1024
            assert abs(row.lhs - row.rhs) < 2e-6
            assert row.lhs <= row.bound + 1e-6
            assert row.rhs <= row.bound + 1e-6
            assert row.circ_scaled <= row.lhs + 20.0 / row.r
            assert row.bound == pytest.approx(
                (log_c - ctx.order * math.log(row.r)) / row.r**2 + a / 2)
        for v, row in zip(report.circ_values, report.rows):
            assert v <= 1.0 + 40.0 / row.r

    def test_zero_free_base_case(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0,))
        ctx = tp.build_context(f)
        report = tp.verify_base_case(ctx, [2.0])
        assert report.rows[0].lhs == 0.0
        assert report.rows[0].extra_zeros == 0
