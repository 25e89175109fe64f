import math

import numpy as np
import pytest

import tpshift as tp
import tpshift.jensen as jensen
from tpshift.errors import OrderDetectionError, PhaseTrackingError, QuadratureError
from tpshift.jensen import _stable_terms


def alternating_function(fn_factory, params, rng, n_shifts=40):
    # Magnitudes near 1 keep every crossing solidly real; wider bands let
    # near-touch crossings lift into off-lattice complex pairs.
    mags = rng.uniform(0.9, 1.1, n_shifts)
    c = mags * (-1.0) ** np.arange(n_shifts)
    return fn_factory(params, -n_shifts // 2, c)


def uncertified_function(fn_factory):
    # At gamma = 20 the 40 alternating unit coefficients give 35 real zeros
    # against a degree of 39, so the zero set is not certified complete and
    # the winding count and the doubling contour average run.  The other four
    # roots lie beyond |z| = 8, so the counts there have no extra zeros.
    return fn_factory(tp.GeneratorParams(1.0, 20.0), -20, (-1.0) ** np.arange(40))


def uncertified_family(fn_factory, params, kind):
    # The three kinds of f whose zero set is not certified complete, as in
    # TestZeroSetCertificate.
    if kind == "odd":
        return fn_factory(params, -1, (1.0, 0.0, -1.0))
    if kind == "positive":
        return fn_factory(params, -20, np.random.default_rng(61).uniform(0.9, 1.1, 40))
    return uncertified_function(fn_factory)


UNCERTIFIED = ["odd", "positive", "gamma20"]


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

    def test_zero_function_is_minus_infinity(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, -1, (0.0, 0.0, 0.0))
        assert tp.log_abs_f_complex(f, 0.5 + 2j) == -math.inf
        zs = np.array([[0.0, 1j], [3.0 - 2j, -40.0 + 7j]])
        assert np.all(tp.log_abs_f_complex(f, zs) == -math.inf)
        scale, inner = _stable_terms(f, zs)
        assert scale.shape == inner.shape == zs.shape
        assert np.all(scale == -math.inf) and np.all(inner == 0.0)


def per_term_stable_terms(f, z):
    # Reference: one complex exponential per term, summed directly.
    zz = np.asarray(z, dtype=complex)
    ks = f.coeffs.support_indices()
    cs = np.asarray(f.coeffs.coeffs)
    keep = cs != 0.0
    ks, cs = ks[keep], cs[keep]
    a = f.params.gauss_rate
    w = zz[..., None] - ks
    log_mag = (math.log(f.params.time_amplitude) + np.log(np.abs(cs))
               - a * (w.real * w.real - w.imag * w.imag))
    phase = -2.0 * a * w.real * w.imag + np.where(cs < 0, math.pi, 0.0)
    scale = np.max(log_mag, axis=-1)
    return scale, np.sum(np.exp(log_mag - scale[..., None] + 1j * phase), axis=-1)


def coefficient_cases():
    rng = np.random.default_rng(53)
    cases = []
    for k in (1, 2, 40, 300):
        c = rng.uniform(0.9, 1.1, k) * (-1.0) ** np.arange(k)
        cases.append(pytest.param(-(k // 2), c, id=f"alternating-{k}"))
    c = rng.standard_normal(40)
    c[[1, 7, 8, 9, 20, 38]] = 0.0
    cases.append(pytest.param(-20, c, id="interior-zeros"))
    c = rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-200, 200, 40)
    c[[0, -1]] = 1e-200, -1e200
    cases.append(pytest.param(-20, c, id="1e-200-to-1e200"))
    c = rng.uniform(0.9, 1.1, 300) * (-1.0) ** np.arange(300)
    cases.append(pytest.param(-150, c, id="offset--150"))
    cases.append(pytest.param(10**6, rng.standard_normal(40), id="offset-1e6"))
    return cases


class TestStableTerms:
    @pytest.mark.parametrize("offset,coeffs", coefficient_cases())
    @pytest.mark.parametrize("r", [0.5, 2.0, 8.0, 60.0])
    def test_matches_per_term_evaluation(self, fn_factory, offset, coeffs, r):
        # Contours around the support's centre and points 1e3 beyond its
        # ends, at the rates a = 1, 0.01 and 200; inner is in units of the
        # largest term, so the tolerance is relative to it.  The reference
        # rounds each term's log-magnitude, near a y^2, and its phase
        # 2a(x - k)y to their last bits, so a contour enters only where
        # a r^2 <= 3600, as at a = 1, r = 60, and the far points keep
        # 2a|x - k||y| near 1e3.
        centre = offset + (len(coeffs) - 1) / 2.0
        reach = (len(coeffs) - 1) / 2.0 + 1e3
        for a in (1.0, 0.01, 200.0):
            f = fn_factory(tp.GeneratorParams(1.0, math.pi**2 / a), offset, coeffs)
            zs = centre + np.array([-reach - 7.3, -reach, reach, reach + 0.5]) \
                + 1j / a * np.array([0.5, -0.5, 0.0, 0.2])
            if a * r * r <= 3600.0:
                theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
                zs = np.concatenate([zs, centre + r * np.exp(1j * theta),
                                     [centre + 0.3j, centre - 1.7 + 0.9j]])
            scale, inner = _stable_terms(f, zs)
            want_scale, want_inner = per_term_stable_terms(f, zs)
            assert np.max(np.abs(scale - want_scale)) <= 1e-12
            assert np.max(np.abs(inner - want_inner)) <= 1e-12


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
        # m_0 is 5e-10 of its term size, between the noise floor and the
        # detection tolerance, and m_1 = 0 by symmetry, so order 2 would be
        # detected and F misnormalized by a factor of about 1e9.
        c = 2.0 * math.exp(-1.0) * (1.0 - 1e-9)
        f = fn_factory(gauss_params, -1, (1.0, -c, 1.0))
        _, moments, sizes = jensen._moments_at_zero(f)
        value = abs(moments[0]) / sizes[0]
        assert jensen.ORDER_NOISE_FLOOR < value < jensen.ORDER_DETECT_TOL
        with pytest.raises(OrderDetectionError, match="ambiguous"):
            tp.build_context(f)

    @pytest.mark.parametrize("offset,scale", [(5, 1.0), (10, 1.0), (30, 1.0),
                                              (-6, 1e-9), (-6, 1e-12)])
    def test_order_is_relative_to_the_terms(self, gauss_params, fn_factory, offset, scale):
        # f(0) is 7.9e-12 at offset 5 and underflows at offset 30; only the
        # moments relative to their term sizes, with the shift s, see order 0.
        rng = np.random.default_rng(1)
        c = scale * rng.uniform(0.9, 1.1, 12) * (-1.0) ** np.arange(12)
        ctx = tp.build_context(fn_factory(gauss_params, offset, c))
        assert ctx.order == 0
        report = tp.verify_base_case(ctx, [2.0, 4.0, 8.0])
        for row in report.rows:
            assert row.extra_zeros == 0
            assert abs(row.lhs - row.rhs) <= 2e-6


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

    def test_derived_values_are_not_settable(self, gauss_params, fn_factory):
        count = tp.DiskZeroCount(total=5, lattice=3)
        assert count.extra == 2
        with pytest.raises(TypeError):
            tp.DiskZeroCount(total=5, lattice=3, extra=1)
        ctx = tp.build_context(fn_factory(gauss_params, 0, (1.0, -1.0)))
        assert ctx.gauss_rate == gauss_params.gauss_rate
        with pytest.raises(TypeError):
            tp.JensenContext(f=ctx.f, gauss_rate=1.0, order=ctx.order,
                             log_c1=ctx.log_c1, real_zeros=ctx.real_zeros)

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

    def test_origin_images_are_known_zeros(self, gauss_params, fn_factory):
        # P(w) = (w - 1)(w - 4)/w: order 1 at the origin, so F vanishes at
        # i*pi*k, k != 0, and one real zero at log(4)/2.  Within |z| <= 7:
        # five lattice points over log 2 and the images +-i*pi, +-2i*pi.
        f = fn_factory(gauss_params, -1, (4.0 * math.e, -5.0, math.e))
        ctx = tp.build_context(f)
        assert ctx.order == 1
        assert ctx.zero_set_complete
        assert ctx.real_zeros.points == pytest.approx((math.log(2.0),), abs=1e-9)
        count = tp.count_zeros_disk(ctx, 7.0)
        assert (count.total, count.lattice) == (9, 9)
        report = tp.verify_base_case(ctx, [4.0, 8.0, 30.0])
        assert [row.r for row in report.rows] == [4.25, 8.25, 30.25]
        for row in report.rows:
            assert row.extra_zeros == 0
            assert abs(row.lhs - row.rhs) <= 1e-8

    def test_origin_images_move_the_radius(self, gauss_params, fn_factory):
        # P(w) = (1 - w^2)/e has the root w = -1 besides w = 1, so the zeros
        # +-i*pi/2 and +-3i*pi/2 stay unenumerated.
        f = fn_factory(gauss_params, -1, (1.0, 0.0, -1.0))
        row = tp.verify_base_case(tp.build_context(f), [5.0]).rows[0]
        assert (row.r, row.extra_zeros) == (5.25, 4)

    def test_origin_images_are_capped_before_allocating(self, gauss_params, fn_factory):
        # No real zeros, so the 2.5e7 images alone pass the cap.
        ctx = tp.build_context(fn_factory(gauss_params, -1, (1.0, 0.0, -1.0)))
        assert len(ctx.real_zeros) == 0
        with pytest.raises(ValueError, match="known zeros"):
            tp.count_zeros_disk(ctx, 4e7)

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


def fresh_contour_average(ctx, r, n=64, tol=1e-7):
    # The uncertified jensen_rhs with every half-circle grid evaluated afresh.
    prev = None
    while True:
        cur, = jensen._contour_averages(ctx, [(r, n)])
        if prev is not None and abs(cur - prev) < tol:
            return cur
        prev, n = cur, 2 * n


def full_circle_winding(ctx, t):
    # Reference for the half-circle winding count: phase tracking around the
    # whole circle on fresh grids of 512 up to 2^17 points, until two
    # consecutive grids give the same integer.
    a, order = ctx.gauss_rate, ctx.order
    prev = None
    for nt in (512 << j for j in range(9)):
        theta = np.linspace(0.0, 2.0 * math.pi, nt + 1)
        _, inner = _stable_terms(ctx.f, t * np.exp(1j * theta[:-1]))
        inner = np.append(inner, inner[:1])
        dphi = np.angle(inner[1:] * np.conj(inner[:-1]))
        incr = dphi - order * np.diff(theta) + 0.5 * a * t * t * np.diff(np.sin(2.0 * theta))
        k = None
        if np.max(np.abs(dphi)) < 0.5 * math.pi and np.max(np.abs(incr)) < 0.5 * math.pi:
            w = float(np.sum(incr)) / (2.0 * math.pi)
            k = round(w) if abs(w - round(w)) < 0.01 else None
        if k is not None and k == prev:
            return k
        prev = k
    raise AssertionError(f"full-circle phase tracking did not settle at |z|={t}")


def recording_stable_terms(monkeypatch):
    # Every _stable_terms call of jensen as (z, (scale, inner)).
    calls = []

    def recording(f, z):
        out = _stable_terms(f, z)
        calls.append((z, out))
        return out

    monkeypatch.setattr(jensen, "_stable_terms", recording)
    return calls


class TestHalfCircleGrids:
    def test_strided_grid_matches_fresh_evaluation(self, gauss_params, fn_factory,
                                                   monkeypatch):
        # A row evaluates the 513 points of the 1024-point grid, then each
        # doubling's new odd-index points: every point of its finest grid
        # once.  Each coarser power-of-two grid is a strided view of the
        # finest one with the bits of a fresh evaluation at its points.
        ctx = tp.build_context(uncertified_family(fn_factory, gauss_params, "positive"))
        calls = recording_stable_terms(monkeypatch)
        row = tp.verify_base_case(ctx, [8.0]).rows[0]
        top = row.samples
        assert top == 1 << 15 and len(calls) == 6
        # Positions in the finest grid: all of the 1024-point grid's, then
        # the odd ones of each finer grid.
        pos = [np.arange(0, top // 2 + 1, top // 1024)]
        pos += [np.arange(top // n, top // 2 + 1, 2 * top // n) for n in (2048, 4096, 8192,
                                                                          16384, top)]
        theta = np.linspace(0.0, math.pi, top // 2 + 1)
        for (z, _), at in zip(calls, pos):
            assert z.tobytes() == (row.r * np.exp(1j * theta[at])).tobytes()
        pos = np.concatenate(pos)
        assert np.array_equal(np.sort(pos), np.arange(top // 2 + 1))
        finest = [np.empty(top // 2 + 1), np.empty(top // 2 + 1, dtype=complex)]
        for part, values in zip(finest, zip(*(out for _, out in calls))):
            part[pos] = np.concatenate(values)
        for n in (64, 512, 1024, 8192, top):
            fresh = _stable_terms(
                ctx.f, row.r * np.exp(1j * np.linspace(0.0, math.pi, n // 2 + 1)))
            assert same_bits([v[::top // n] for v in finest], fresh)

    @pytest.mark.parametrize("n_shifts,r", [(40, 3.7), (300, 60.0)])
    def test_values_depend_on_the_point_alone(self, gauss_params, fn_factory, n_shifts, r):
        # A point's bits do not depend on the other points of the call, their
        # order or the array's shape; 300 shifts span several term blocks.
        rng = np.random.default_rng(41)
        f = alternating_function(fn_factory, gauss_params, rng, n_shifts)
        zs = r * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 1001))
        whole = _stable_terms(f, zs)
        perm = rng.permutation(zs.size)
        assert same_bits(_stable_terms(f, zs[perm]), [v[perm] for v in whole])
        grid = _stable_terms(f, zs[:1000].reshape(8, 125))
        assert same_bits(grid, [v[:1000].reshape(8, 125) for v in whole])
        for i in (0, 17, 500, 1000):
            assert same_bits(_stable_terms(f, zs[i]), [v[i] for v in whole])

    @pytest.mark.parametrize("kind", UNCERTIFIED)
    def test_points_and_calls_per_row(self, gauss_params, fn_factory, monkeypatch, kind):
        # One evaluation of 513 points, then one per doubling of the grid:
        # the half circle of the finest grid, each point once.
        ctx = tp.build_context(uncertified_family(fn_factory, gauss_params, kind))
        calls = recording_stable_terms(monkeypatch)
        for r in (2.0, 4.0, 8.0):
            calls.clear()
            row = tp.verify_base_case(ctx, [r]).rows[0]
            assert sum(z.size for z, _ in calls) == row.samples // 2 + 1
            assert row.samples == 1024 << (len(calls) - 1)

    @pytest.mark.parametrize("kind", UNCERTIFIED)
    def test_standalone_calls_match_fresh_evaluation(self, gauss_params, fn_factory, kind):
        f = uncertified_family(fn_factory, gauss_params, kind)
        report = tp.verify_base_case(tp.build_context(f), [2.0, 4.0, 8.0])
        for row in report.rows:
            ctx = tp.build_context(f)
            assert tp.jensen_rhs(ctx, row.r) == fresh_contour_average(ctx, row.r) == row.rhs
            assert tp.count_zeros_disk(ctx, row.r).extra == row.extra_zeros

    @pytest.mark.parametrize("kind", UNCERTIFIED)
    def test_half_circle_count_matches_full_circle(self, gauss_params, fn_factory, kind):
        ctx = tp.build_context(uncertified_family(fn_factory, gauss_params, kind))
        for r0 in (2.0, 4.0, 8.0):
            r = tp.safe_radius(ctx, r0)
            assert tp.count_zeros_disk(ctx, r).total == full_circle_winding(ctx, r)

    def test_average_drives_the_finest_grid(self, fn_factory, monkeypatch):
        # At gamma = 5 the odd f's count at r = 4 settles on the 2048-point
        # grid and its average on the 4096-point one.  The row evaluates the
        # finer grid's half circle, each point once; the count alone
        # evaluates the 2048-point grid's and nothing beyond.
        ctx = tp.build_context(
            fn_factory(tp.GeneratorParams(1.0, 5.0), -1, (1.0, 0.0, -1.0)))
        calls = recording_stable_terms(monkeypatch)
        row = tp.verify_base_case(ctx, [4.0]).rows[0]
        assert (row.samples, row.extra_zeros) == (4096, 6)
        assert sum(z.size for z, _ in calls) == row.samples // 2 + 1
        calls.clear()
        assert tp.count_zeros_disk(ctx, row.r).extra == 6
        z = np.sort_complex(np.concatenate([z for z, _ in calls]))
        theta = np.linspace(0.0, math.pi, 2048 // 2 + 1)
        assert z.tobytes() == np.sort_complex(row.r * np.exp(1j * theta)).tobytes()

    def test_each_part_raises_its_own_error(self, gauss_params, fn_factory):
        # |z| = pi/2 passes through z = i pi/2, a zero over the root w = -1 of
        # P off the real lattice, so both the count and the average fail.
        ctx = tp.build_context(uncertified_family(fn_factory, gauss_params, "odd"))
        with pytest.raises(QuadratureError):
            tp.jensen_rhs(ctx, math.pi / 2)
        with pytest.raises(PhaseTrackingError):
            tp.count_zeros_disk(ctx, math.pi / 2)
        # The chain checks the count first.
        with pytest.raises(PhaseTrackingError):
            tp.verify_base_case(ctx, [math.pi / 2])


class TestZeroSetCertificate:
    def test_refuses_odd_coefficients(self, gauss_params, fn_factory):
        # P(w) = (1 - w^2)/e: the root w = -1 has no real zero over it.
        ctx = tp.build_context(fn_factory(gauss_params, -1, (1.0, 0.0, -1.0)))
        assert ctx.order == 1 and not ctx.zero_set_complete
        report = tp.verify_base_case(ctx, [2.0, 4.0, 8.0])
        assert [row.extra_zeros for row in report.rows] == [2, 2, 6]

    def test_refuses_positive_coefficients(self, gauss_params, fn_factory):
        rng = np.random.default_rng(61)
        ctx = tp.build_context(fn_factory(gauss_params, -20, rng.uniform(0.9, 1.1, 40)))
        assert len(ctx.real_zeros) == 0 and not ctx.zero_set_complete
        report = tp.verify_base_case(ctx, [2.0, 4.0, 8.0])
        extra = [row.extra_zeros for row in report.rows]
        assert extra[:2] == [4, 16] and extra[2] > 16
        assert all(row.samples >= 1024 for row in report.rows)

    def test_refuses_missing_real_zeros(self, fn_factory):
        ctx = tp.build_context(uncertified_function(fn_factory))
        assert (len(ctx.real_zeros), ctx.order) == (35, 0)
        assert not ctx.zero_set_complete
        for row in tp.verify_base_case(ctx, [2.0, 4.0, 8.0]).rows:
            assert row.extra_zeros == 0 and row.samples >= 1024
            assert abs(row.lhs - row.rhs) < 2e-6

    def test_certified_count_skips_the_winding_number(self, gauss_params, fn_factory,
                                                      monkeypatch):
        # With a complete zero set neither the count, nor the average, nor the
        # chain builds the nested half-circle grid.
        rng = np.random.default_rng(43)
        ctx = tp.build_context(alternating_function(fn_factory, gauss_params, rng, 40))
        assert ctx.zero_set_complete
        radii = [tp.safe_radius(ctx, t) for t in (2.0, 4.0, 8.0)]
        counts = [tp.count_zeros_disk(ctx, r) for r in radii]
        rhss = [tp.jensen_rhs(ctx, r) for r in radii]
        report = tp.verify_base_case(ctx, [2.0, 4.0, 8.0])

        def refuse(*args, **kwargs):
            raise AssertionError("nested half-circle grid built")

        for name in ("_grid", "_winding_count", "_doubling_average"):
            monkeypatch.setattr(jensen, name, refuse)
        assert all(count.extra == 0 for count in counts)
        assert [tp.count_zeros_disk(ctx, r) for r in radii] == counts
        assert [tp.jensen_rhs(ctx, r) for r in radii] == rhss
        assert tp.verify_base_case(ctx, [2.0, 4.0, 8.0]) == report


def order_one_function(fn_factory, params):
    return fn_factory(params, -1, (4.0 * math.e, -5.0, math.e))


def trapezoid_error(ctx, mods, r, n):
    """Reference: the trapezoid error bound of one n-point grid, from the moduli."""
    rho = mods[:np.searchsorted(mods, 3.0 * r, side="right")] / r
    rho = np.minimum(rho, 1.0 / rho)
    with np.errstate(divide="ignore"):
        power = rho ** n
        inner = float(np.sum(power / (1.0 - power)))
    q = 3.0 ** -n
    k = math.floor(3.0 * r / ctx.lattice_step)
    columns = len(ctx.real_zeros) + ctx.order
    tail = columns * q * (2 * k + 3 + 2 * (k + 1) / (n - 1)) / (1.0 - q)
    return (inner + tail) / n


class TestProvenGrid:
    @pytest.mark.parametrize("kind", ["alternating", "order-one"])
    @pytest.mark.parametrize("r", [2.0, 4.25, 8.0])
    def test_error_bound_holds_on_every_grid(self, gauss_params, fn_factory, kind, r):
        # The bound against a 2^16-point reference, on every grid the search
        # passes; its rounding, about 1e-14 r^2, gets a slack of 1e-13 r^2.
        if kind == "alternating":
            f = alternating_function(fn_factory, gauss_params, np.random.default_rng(23))
        else:
            f = order_one_function(fn_factory, gauss_params)
        ctx = tp.build_context(f)
        assert ctx.zero_set_complete
        mods = jensen._known_moduli(ctx, 3.0 * r + 1.0)
        top = jensen._proven_grid(ctx, mods, r)
        ns = [64 << j for j in range(top.bit_length() - 6)]
        assert ns[-1] == top
        ref, *vals = jensen._contour_averages(ctx, [(r, 1 << 16)] + [(r, n) for n in ns])
        errors = dict(jensen._trapezoid_errors(ctx, mods, r))
        for n, val in zip(ns, vals):
            bound = errors[n] + errors[1 << 16]
            assert abs(val - ref) * r * r <= bound + 1e-13 * r * r
        assert errors[top] <= jensen.RHS_TOL * r * r

    @pytest.mark.parametrize("kind", ["alternating", "order-one"])
    @pytest.mark.parametrize("r", [2.0, 4.25, 8.0])
    def test_bounds_equal_the_bound_of_each_grid_alone(self, gauss_params, fn_factory,
                                                       kind, r):
        # rho formed once per radius gives every grid's bound bit for bit.
        if kind == "alternating":
            f = alternating_function(fn_factory, gauss_params, np.random.default_rng(23))
        else:
            f = order_one_function(fn_factory, gauss_params)
        ctx = tp.build_context(f)
        mods = jensen._known_moduli(ctx, 3.0 * r + 1.0)
        errors = list(jensen._trapezoid_errors(ctx, mods, r))
        ns = [64 << j for j in range(13)]
        assert [n for n, _ in errors] == ns and ns[-1] == jensen.MAX_GRID
        assert [e for _, e in errors] == [trapezoid_error(ctx, mods, r, n) for n in ns]

    @pytest.mark.parametrize("kind", ["alternating", "order-one"])
    def test_standalone_rhs_matches_the_report(self, gauss_params, fn_factory, kind):
        if kind == "alternating":
            f = alternating_function(fn_factory, gauss_params, np.random.default_rng(47))
        else:
            f = order_one_function(fn_factory, gauss_params)
        report = tp.verify_base_case(tp.build_context(f), [2.0, 4.0, 8.0])
        for row in report.rows:
            assert tp.jensen_rhs(tp.build_context(f), row.r) == row.rhs

    def test_all_radii_evaluated_at_once(self, gauss_params, fn_factory, monkeypatch):
        # Half of each proven grid plus its end point, in one evaluation.
        ctx = tp.build_context(
            alternating_function(fn_factory, gauss_params, np.random.default_rng(43)))
        calls = recording_stable_terms(monkeypatch)
        report = tp.verify_base_case(ctx, [2.0, 4.0, 8.0])
        assert [z.size for z, _ in calls] == [sum(row.samples // 2 + 1 for row in report.rows)]


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
            mods = jensen._known_moduli(ctx, 3.0 * row.r + 1.0)
            assert row.samples == jensen._proven_grid(ctx, mods, row.r)
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
