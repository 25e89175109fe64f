import math

import numpy as np
import pytest
from scipy.linalg.lapack import dgeqrf, dorgqr

import tpshift as tp
from tpshift import sigret
from tpshift.errors import RankDeficiencyError, SearchBudgetError


def jittered_set(rng, density, window):
    lo, hi = window
    spacing = 1.0 / density
    n = int((hi - lo) / spacing)
    pts = lo + (np.arange(n) + 0.5) * spacing \
        + rng.uniform(-0.25 * spacing, 0.25 * spacing, n)
    return tp.PointSet(points=tuple(np.unique(np.clip(pts, lo, hi))), window=window)


def ground_truth_instance(fn_factory, params, rng, support=(-8, 8),
                          window=(-10.0, 10.0), density=2.5):
    ks = np.arange(support[0], support[1] + 1)
    c = rng.standard_normal(len(ks))
    f = fn_factory(params, support[0], c)
    lam = jittered_set(rng, density, window)
    sample = tp.sample_magnitudes(f, lam)
    return f, c, lam, sample


class TestSampleTypes:
    def test_magnitudes_match_eval(self, gauss_params, fn_factory):
        rng = np.random.default_rng(3)
        f, c, lam, sample = ground_truth_instance(fn_factory, gauss_params, rng)
        vals = tp.eval_f(f, lam.as_array())
        assert np.allclose(sample.mags_array(), np.abs(vals), atol=1e-8)

    def test_zero_function_gives_zero_magnitudes(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (0.0, 0.0))
        lam = tp.PointSet(points=(0.0, 0.5, 1.0), window=(-1.0, 2.0))
        assert tp.sample_magnitudes(f, lam).magnitudes == (0.0, 0.0, 0.0)

    def test_magnitudes_invariant_under_global_flip(self, gauss_params, fn_factory):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(9)
        lam = tp.PointSet(points=tuple(np.linspace(-3, 3, 15)), window=(-4.0, 4.0))
        plus = tp.sample_magnitudes(fn_factory(gauss_params, -4, c), lam)
        minus = tp.sample_magnitudes(fn_factory(gauss_params, -4, -c), lam)
        assert np.allclose(plus.mags_array(), minus.mags_array(), atol=1e-12)

    def test_sign_pattern_consistency_checked(self):
        p = tp.SignPattern((1, -1, -1, 1))
        assert p.change_points == (0, 2)

    def test_magnitude_sample_validation(self):
        lam = tp.PointSet(points=(0.0, 1.0), window=(-1.0, 2.0))
        with pytest.raises(ValueError):
            tp.MagnitudeSample(lam=lam, magnitudes=(1.0,))
        with pytest.raises(ValueError):
            tp.MagnitudeSample(lam=lam, magnitudes=(1.0, -0.5))
        # Squares that overflow are refused; the largest finite sum passes.
        with pytest.raises(ValueError, match="finite sum"):
            tp.MagnitudeSample(lam=lam, magnitudes=(1e154, 1e154))
        with pytest.raises(ValueError, match="finite sum"):
            tp.MagnitudeSample(lam=lam, magnitudes=(0.0, 1e300))
        tp.MagnitudeSample(lam=lam, magnitudes=(1e154, 1e153))


class TestFitCoeffs:
    def test_round_trip_with_true_signs(self, gauss_params, fn_factory):
        rng = np.random.default_rng(7)
        f, c, lam, _ = ground_truth_instance(fn_factory, gauss_params, rng)
        signed = tp.eval_f(f, lam.as_array())
        coeffs, rms = tp.fit_coeffs(gauss_params, lam, signed, (-8, 8))
        assert np.max(np.abs(np.asarray(coeffs.coeffs) - c)) < 1e-6
        assert rms < 1e-7

    def test_undersampled_support_is_rank_deficient(self, gauss_params):
        lam = tp.PointSet(points=tuple(np.arange(-10.0, 10.5, 2.0)),
                          window=(-10.0, 10.0))
        with pytest.raises(RankDeficiencyError):
            tp.fit_coeffs(gauss_params, lam, np.zeros(len(lam.points)), (-10, 10))

    def test_all_zero_values(self, gauss_params):
        lam = tp.PointSet(points=tuple(np.linspace(-4, 4, 30)), window=(-5.0, 5.0))
        coeffs, rms = tp.fit_coeffs(gauss_params, lam, np.zeros(30), (-2, 2))
        assert np.max(np.abs(coeffs.coeffs)) < 1e-12
        assert rms < 1e-12


class TestSolveSigns:
    def test_positive_function_needs_no_changes(self, gauss_params, fn_factory):
        rng = np.random.default_rng(11)
        c = np.abs(rng.standard_normal(9)) + 0.2
        f = fn_factory(gauss_params, -4, c)
        lam = jittered_set(rng, 2.5, (-6.0, 6.0))
        sample = tp.sample_magnitudes(f, lam)
        res = tp.solve_signs(gauss_params, sample, (-4, 4), 10)
        assert res.sign_changes == 0
        assert all(s == 1 for s in res.signs.signs)
        assert np.max(np.abs(np.asarray(res.coeffs.coeffs) - c)) < 1e-6

    def test_gaussian_pair_single_change(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0, -1.0))
        pts = np.arange(-12, 16) / 3.0
        lam = tp.PointSet(points=tuple(pts), window=(-4.0, 5.0))
        sample = tp.sample_magnitudes(f, lam)
        res = tp.solve_signs(gauss_params, sample, (0, 1), 4)
        assert res.sign_changes == 1
        slot = res.signs.change_points[0]
        assert pts[slot] < 0.5 < pts[slot + 1]
        assert np.asarray(res.coeffs.coeffs) == pytest.approx([1.0, -1.0], abs=1e-7)

    def test_recovers_random_instances(self, m1_params, fn_factory):
        rng = np.random.default_rng(13)
        for _ in range(5):
            f, c, lam, sample = ground_truth_instance(fn_factory, m1_params, rng)
            res = tp.solve_signs(m1_params, sample, (-8, 8), 22)
            err = min(np.max(np.abs(np.asarray(res.coeffs.coeffs) - c)),
                      np.max(np.abs(np.asarray(res.coeffs.coeffs) + c)))
            assert err < 1e-6
            assert res.residual < 1e-5 * max(sample.magnitudes)

    def test_infeasible_change_budget_fails(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0, -1.0))
        lam = tp.PointSet(points=tuple(np.arange(-12, 16) / 3.0), window=(-4.0, 5.0))
        sample = tp.sample_magnitudes(f, lam)
        with pytest.raises(SearchBudgetError):
            tp.solve_signs(gauss_params, sample, (0, 1), 0)

    def test_rejects_all_tiny_magnitudes(self, gauss_params):
        lam = tp.PointSet(points=(0.0, 1.0, 2.0), window=(-1.0, 3.0))
        sample = tp.MagnitudeSample(lam=lam, magnitudes=(1e-12, 1e-13, 0.0))
        with pytest.raises(ValueError):
            tp.solve_signs(gauss_params, sample, (0, 1), 2)

    def test_undersampling_raises_rank_error(self, gauss_params):
        lam = tp.PointSet(points=tuple(np.linspace(-10, 10, 12)), window=(-10.0, 10.0))
        sample = tp.MagnitudeSample(lam=lam, magnitudes=tuple(np.ones(12)))
        with pytest.raises(RankDeficiencyError):
            tp.solve_signs(gauss_params, sample, (-8, 8), 5)

    def test_global_sign_quotient(self, gauss_params, fn_factory):
        rng = np.random.default_rng(17)
        c = rng.standard_normal(9)
        lam = jittered_set(rng, 2.5, (-6.0, 6.0))
        plus = tp.sample_magnitudes(fn_factory(gauss_params, -4, c), lam)
        minus = tp.sample_magnitudes(fn_factory(gauss_params, -4, -c), lam)
        res_plus = tp.solve_signs(gauss_params, plus, (-4, 4), 14)
        res_minus = tp.solve_signs(gauss_params, minus, (-4, 4), 14)
        assert res_plus.signs == res_minus.signs
        assert np.allclose(res_plus.coeffs.coeffs, res_minus.coeffs.coeffs, atol=1e-9)

    def test_split_consistency_with_ground_truth(self, gauss_params, fn_factory):
        rng = np.random.default_rng(19)
        f, c, lam, sample = ground_truth_instance(fn_factory, gauss_params, rng)
        res = tp.solve_signs(gauss_params, sample, (-8, 8), 22)
        truth = tp.eval_f(f, lam.as_array())
        fhat = tp.design_matrix(gauss_params, lam.as_array(), (-8, 8)) \
            @ np.asarray(res.coeffs.coeffs)
        scale = np.max(np.abs(truth))
        agree = np.sign(fhat) == np.sign(truth)
        if np.mean(agree) < 0.5:
            fhat = -fhat
            agree = ~agree
        diff = fhat - truth
        summ = fhat + truth
        rms_agree = math.sqrt(np.mean(diff[agree] ** 2)) if agree.any() else 0.0
        rms_rest = math.sqrt(np.mean(summ[~agree] ** 2)) if (~agree).any() else 0.0
        assert rms_agree <= 1e-6 * scale
        assert rms_rest <= 1e-6 * scale


class TestFitter:
    def test_fit_and_full_residual_match_lstsq(self, m1_params):
        rng = np.random.default_rng(11)
        design = sigret.design_matrix(m1_params, np.sort(rng.uniform(-10.0, 10.0, 50)),
                                      (-8, 8))
        assert np.any(design == 0.0)  # the sub-roundoff clip applied
        for a in (rng.standard_normal((40, 9)), design):
            fitter = sigret._PatternFitter(a)
            v = rng.standard_normal(a.shape[0])
            c_ref, *_ = np.linalg.lstsq(a, v, rcond=None)
            resid = a @ c_ref - v
            c, rms = fitter.fit(v)
            assert np.max(np.abs(c - c_ref)) <= 1e-10 * np.max(np.abs(c_ref))
            assert rms == pytest.approx(math.sqrt(np.mean(resid * resid)), rel=1e-10)
            assert fitter.sse_full(v) == pytest.approx(resid @ resid, abs=1e-9 * (v @ v))


class TestCarriedBound:
    """The level-updated prefix residual that prunes the sign search."""

    def test_carried_sse_is_the_prefix_least_squares_residual(self):
        # 40 samples: levels of 1, 6, ..., 6 and 3 rows, the second ending
        # with 7 prefix rows for 9 coefficients, where the residual is 0.
        rng = np.random.default_rng(37)
        a = rng.standard_normal((40, 9))
        v = rng.standard_normal(40)
        fitter = sigret._PatternFitter(a)
        m = fitter.m
        bounds = fitter.bounds
        assert bounds[:3] == [0, 1, 1 + sigret.LEVEL_ROWS] and bounds[2] < m
        assert 0 < bounds[-1] - bounds[-2] < sigret.LEVEL_ROWS
        w = np.zeros(m)
        sse = 0.0
        previous = 0.0
        for lo, hi, t in zip(bounds, bounds[1:], fitter.level_updates):
            assert t.shape == (m + hi - lo, m + hi - lo)
            assert np.allclose(t @ t.T, np.eye(m + hi - lo), atol=1e-12)
            we = t @ np.concatenate([w, v[lo:hi]])
            w, sse = we[:m], sse + we[m:] @ we[m:]
            c, *_ = np.linalg.lstsq(a[:hi], v[:hi], rcond=None)
            resid = a[:hi] @ c - v[:hi]
            assert sse == pytest.approx(resid @ resid, abs=1e-9 * (v @ v))
            assert sse >= previous
            previous = sse
        assert sse == pytest.approx(fitter.sse_full(v), abs=1e-9 * (v @ v))

    def test_counters(self, gauss_params, fn_factory):
        # Integer samples put |f| at its local peak on both sides of the zero
        # at 0.5, so the crossing slot is no candidate of the first pass.
        f = fn_factory(gauss_params, 0, (1.0, -1.0))
        lam = tp.PointSet(points=tuple(np.arange(-3.0, 5.0)), window=(-4.0, 5.0))
        sample = tp.sample_magnitudes(f, lam)
        res = tp.solve_signs(gauss_params, sample, (0, 1), 3)
        again = tp.solve_signs(gauss_params, sample, (0, 1), 3)
        assert res.second_pass
        assert res.signs.change_points == (3,)
        assert (res.nodes, res.patterns) == (again.nodes, again.patterns)
        assert res.nodes >= 7 and res.patterns >= 1
        oracle = tp.brute_force_signs(gauss_params, sample, (0, 1), 3)
        assert oracle.signs == res.signs
        assert (oracle.nodes, oracle.patterns, oracle.second_pass) == (0, 64, False)


def _row_updates(a):
    """Per-row orthogonal transforms: for each row a_p, the Q.T of the complete
    QR of [R_p; a_p], which maps the carried (w, v_p) to (w', e_p)."""
    m = a.shape[1]
    buf = np.zeros((m + 1, m + 1), order="F")
    below = np.tri(m, k=-1, dtype=bool)
    r = np.zeros((m, m))
    updates = []
    for row in a:
        buf[:m, :m] = r
        buf[m, :m] = row
        _, tau, _, _ = dgeqrf(buf[:, :m], overwrite_a=1)
        r = buf[:m, :m].copy()
        r[below] = 0.0
        q, _, _ = dorgqr(buf, tau, overwrite_a=1)
        updates.append(np.ascontiguousarray(q).T)
    return updates


def _recursive_search(fitter, mags, branch_at, flip_first, max_changes, accept_sse,
                      prune_eps, budget, state):
    """Reference: a recursive depth-first walk that decides one sample at a
    time, pruning after every sample with per-row transforms."""
    n, m = fitter.n, fitter.m
    n_slots = n - 1
    signs = [1.0] * n
    orders = [((True, False) if first else (False, True)) if free else (False,)
              for free, first in zip(branch_at, flip_first)]
    updates = _row_updates(fitter.a)
    heads = [t[:, :m] for t in updates]
    tails = [mags[p] * t[:, m] for p, t in enumerate(updates)]
    bound = min(state["sse"] + prune_eps, accept_sse)

    def leaf():
        nonlocal bound
        sse = fitter.sse_full(np.array(signs) * mags)
        state["patterns"] += 1
        if sse < state["sse"]:
            state["sse"] = sse
            state["signs"] = np.array(signs)
            bound = min(sse + prune_eps, accept_sse)
        if state["patterns"] > budget:
            raise sigret._BudgetExceeded()

    def walk(j, changes, w, sse):
        if j == n_slots:
            leaf()
            return
        p = j + 1
        shared = heads[p] @ w
        for do_flip in orders[j]:
            if do_flip and changes == max_changes:
                continue
            signs[p] = -signs[j] if do_flip else signs[j]
            we = shared + tails[p] if signs[p] > 0 else shared - tails[p]
            e = float(we[m])
            child = sse + e * e
            state["nodes"] += 1
            if child <= bound:
                walk(p, changes + do_flip, we[:m], child)

    root = tails[0]
    walk(0, 0, root[:m], float(root[m]) ** 2)


def _criterion7_instances(support, window, max_changes):
    """Twelve seeded instances shaped like the criterion-7 sweep, m = 0, 1, 2.

    Every other instance with a zero of f in the window also samples f at
    that zero and reads the magnitude there as exactly 0: the patterns that
    differ only in that sample's sign then tie exactly, and the first in
    depth-first order wins.
    """
    for i in range(12):
        deltas = ((), (0.45,), (0.45, -0.3))[i % 3]
        params = tp.GeneratorParams(1.0, math.pi**2, deltas)
        rng = np.random.default_rng(500 + i)
        pts = sigret._draw_sampling_set(rng, (2.2, 2.5, 3.0)[i // 3 % 3], window,
                                        0.0).as_array()
        k = support[1] - support[0] + 1
        c = rng.standard_normal(k)
        f = tp.SISFunction(params, tp.CoeffSeq(support[0], tuple(c)))
        zeros = tp.find_zeros(f, window).points if i % 2 else ()
        if zeros:
            pts = np.sort(np.append(pts, zeros[len(zeros) // 2]))
        mags = np.abs(tp.design_matrix(params, pts, support) @ c)
        if zeros:
            mags[pts == zeros[len(zeros) // 2]] = 0.0
        sample = tp.MagnitudeSample(lam=tp.PointSet(points=tuple(pts), window=window),
                                    magnitudes=tuple(mags))
        yield params, sample, support, max_changes


def _short_instances(max_changes):
    """Instances of 2 to LEVEL_ROWS + 3 samples for two coefficients: after
    sample 0 they leave one short level, one full level, or a full level
    and a short one.  f = g - c g(. - 1) changes sign once in the window;
    with an odd number of samples, only the last sample lies past the zero,
    so the last slot holds the crossing."""
    params = tp.GeneratorParams(1.0, math.pi**2, ())
    window = (-1.5, 2.5)
    for n in range(2, sigret.LEVEL_ROWS + 4):
        rng = np.random.default_rng(700 + n)
        c = (1.0, -rng.uniform(0.5, 2.0))
        if n % 2:
            [zero] = tp.find_zeros(tp.SISFunction(params, tp.CoeffSeq(0, c)), window).points
            pts = np.append(np.sort(rng.uniform(window[0], zero - 0.1, n - 1)), zero + 0.2)
        else:
            pts = np.sort(rng.uniform(*window, n))
        mags = np.abs(tp.design_matrix(params, pts, (0, 1)) @ c)
        sample = tp.MagnitudeSample(lam=tp.PointSet(points=tuple(pts), window=window),
                                    magnitudes=tuple(mags))
        yield params, sample, (0, 1), max_changes


def _outcome(params, sample, support, max_changes):
    try:
        res = tp.solve_signs(params, sample, support, max_changes)
    except SearchBudgetError:
        return "SearchBudgetError"
    return (res.signs, [c.hex() for c in res.coeffs.coeffs], res.residual.hex(),
            res.patterns, res.second_pass)


class TestBatchedSearch:
    """The level-by-level search scores what a recursive depth-first walk does."""

    @pytest.mark.parametrize("cap", [sigret.FRONTIER_CAP, 2])
    @pytest.mark.parametrize("all_free", [False, True])
    def test_matches_recursive_walk(self, monkeypatch, cap, all_free):
        if all_free:
            # No slot is a candidate: the first pass may place no flip and the
            # unrestricted second pass, 2^9 unpruned top nodes, decides.
            monkeypatch.setattr(sigret, "CANDIDATE_DIP", -1.0)
            shape = ((-4, 4), (-6.0, 6.0), 14)
        else:
            shape = ((-8, 8), (-10.0, 10.0), 22)
        criterion7 = list(_criterion7_instances(*shape))
        instances = criterion7 + list(_short_instances(shape[2]))
        # A short last level after full ones, a full last level, and a short
        # level alone after sample 0.
        slots = [len(inst[1].magnitudes) - 1 for inst in instances]
        rows = sigret.LEVEL_ROWS
        assert any(k > rows and k % rows for k in slots)
        assert any(k % rows == 0 for k in slots) and min(slots) < rows
        monkeypatch.setattr(sigret, "FRONTIER_CAP", cap)
        batched = [_outcome(*inst) for inst in instances]
        monkeypatch.setattr(sigret, "_pattern_search", _recursive_search)
        recursive = [_outcome(*inst) for inst in instances]
        assert batched == recursive
        assert "SearchBudgetError" not in batched
        assert any(second_pass for *_, second_pass in batched[:len(criterion7)]) == all_free

    def test_budget_stops_after_budget_plus_one_patterns(self, monkeypatch, gauss_params,
                                                          fn_factory):
        # Three samples for three coefficients: every sign pattern fits
        # exactly, so no complete pattern is pruned.  Every scored pattern
        # passed a bound no larger than the acceptance threshold, so a budget
        # that runs out returns the best pattern so far.  The exact fits tie
        # up to rounding, so which pattern wins is checked against the
        # scores the search saw, not against the full search.
        f = fn_factory(gauss_params, 0, (1.0, -0.5, 0.8))
        lam = tp.PointSet(points=(-0.2, 0.9, 2.3), window=(-1.0, 3.0))
        sample = tp.sample_magnitudes(f, lam)
        full = tp.solve_signs(gauss_params, sample, (0, 2), 2)
        assert full.patterns == 4
        scored = []
        sse_full = sigret._PatternFitter.sse_full

        def recording(fitter, v):
            score = sse_full(fitter, v)
            scored.append((score, np.sign(v)))
            return score

        monkeypatch.setattr(sigret._PatternFitter, "sse_full", recording)
        monkeypatch.setattr(sigret, "PATTERN_BUDGET", 1)
        limited = tp.solve_signs(gauss_params, sample, (0, 2), 2)
        assert limited.patterns == len(scored) == 2
        # min keeps the first of equal scores: the first strict minimum.  No
        # magnitude is near 0, so the canonical pattern leads with +1.
        best = min(scored, key=lambda entry: entry[0])[1]
        assert limited.signs == tp.SignPattern(best * best[0])

    def test_single_sample(self, gauss_params, fn_factory):
        f = fn_factory(gauss_params, 0, (1.0,))
        lam = tp.PointSet(points=(0.3,), window=(-1.0, 1.0))
        res = tp.solve_signs(gauss_params, tp.sample_magnitudes(f, lam), (0, 0), 3)
        assert (res.nodes, res.patterns, res.second_pass) == (0, 1, False)
        assert res.signs.signs == (1,)

    def test_dip_scores_match_loop(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4, 7, 55):
            mags = np.abs(rng.standard_normal(n))
            mags[rng.random(n) < 0.2] = 0.0
            loop = np.empty(n - 1)
            for j in range(n - 1):
                local = mags[max(0, j - 2): min(n, j + 4)]
                loop[j] = (mags[j] + mags[j + 1]) / (2.0 * (float(np.max(local)) + 1e-300))
            assert np.array_equal(sigret._dip_scores(mags), loop)

    @pytest.mark.parametrize("deltas", [(), (0.45,)], ids=["m0", "m1"])
    def test_design_matrix_is_clipped_closed_form(self, deltas):
        params = tp.GeneratorParams(1.0, math.pi**2, deltas)
        pts = np.linspace(-10.0, 10.0, 55)
        columns = np.column_stack([tp.time_eval(params, pts - k) for k in range(-8, 9)])
        clipped = np.abs(columns) < 1e-15 * np.max(np.abs(columns))
        assert clipped.any() and (columns[clipped] != 0.0).any()
        columns[clipped] = 0.0
        assert np.array_equal(tp.design_matrix(params, pts, (-8, 8)), columns)

    def test_design_matrix_size_cap(self, gauss_params):
        # 1000 x 2000 entries reach MAX_TABLE_POINTS exactly; 1001 x 2000
        # exceed it and are refused before the matrix is allocated.
        assert sigret.MAX_TABLE_POINTS == 2_000_000
        assert tp.design_matrix(gauss_params, np.zeros(1000), (0, 1999)).shape == (1000, 2000)
        with pytest.raises(ValueError, match="samples"):
            tp.design_matrix(gauss_params, np.zeros(1001), (0, 1999))


class TestBruteForce:
    def test_agrees_with_solver_on_small_instances(self, gauss_params, fn_factory):
        rng = np.random.default_rng(23)
        n_checked = 0
        while n_checked < 30:
            c = rng.standard_normal(3)
            f = fn_factory(gauss_params, -1, c)
            lam = jittered_set(rng, 2.6, (-2.0, 2.6))
            sample = tp.sample_magnitudes(f, lam)
            truth = tp.eval_f(f, lam.as_array())
            changes = int(np.sum(np.sign(truth[:-1]) != np.sign(truth[1:])))
            if changes > 3:
                continue
            a = tp.solve_signs(gauss_params, sample, (-1, 1), 3)
            b = tp.brute_force_signs(gauss_params, sample, (-1, 1), 3)
            assert a.signs == b.signs
            assert b.residual <= a.residual + 1e-12
            n_checked += 1

    def test_max_changes_zero_is_constant_pattern(self, gauss_params, fn_factory):
        rng = np.random.default_rng(29)
        c = np.abs(rng.standard_normal(5)) + 0.3
        f = fn_factory(gauss_params, -2, c)
        lam = jittered_set(rng, 3.0, (-4.0, 4.0))
        sample = tp.sample_magnitudes(f, lam)
        res = tp.brute_force_signs(gauss_params, sample, (-2, 2), 0)
        assert res.sign_changes == 0

    def test_enumeration_cap(self, gauss_params):
        lam = tp.PointSet(points=tuple(np.linspace(-10, 10, 60)), window=(-10.0, 10.0))
        sample = tp.MagnitudeSample(lam=lam, magnitudes=tuple(np.ones(60)))
        with pytest.raises(SearchBudgetError):
            tp.brute_force_signs(gauss_params, sample, (-3, 3), 59)


class TestExperiment:
    def test_config_validation(self, gauss_params):
        with pytest.raises(ValueError):
            tp.ExperimentConfig(generator=gauss_params, densities=(-1.0,), trials=1,
                                seed=0, support=(-2, 2), window=(-4.0, 4.0),
                                max_changes=5)
        with pytest.raises(ValueError):
            tp.ExperimentConfig.from_json_dict({"generator": {"c0": 1, "gamma": 1}})

    def test_config_refuses_too_many_trials(self, gauss_params):
        with pytest.raises(ValueError, match="trials x densities"):
            tp.ExperimentConfig(generator=gauss_params, densities=(2.5,), trials=10**12,
                                seed=0, support=(-2, 2), window=(-4.0, 4.0),
                                max_changes=5)
        with pytest.raises(ValueError, match="trials x densities"):
            tp.ExperimentConfig(generator=gauss_params, densities=(1.0, 2.0),
                                trials=sigret.MAX_TOTAL_TRIALS // 2 + 1, seed=0,
                                support=(-2, 2), window=(-4.0, 4.0), max_changes=5)

    def test_config_json_round_trip(self, gauss_params):
        cfg = tp.ExperimentConfig(generator=gauss_params, densities=(2.5,), trials=3,
                                  seed=7, support=(-4, 4), window=(-6.0, 6.0),
                                  max_changes=10)
        again = tp.ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg

    def test_zero_trials_empty_report(self, gauss_params):
        cfg = tp.ExperimentConfig(generator=gauss_params, densities=(2.5,), trials=0,
                                  seed=7, support=(-4, 4), window=(-6.0, 6.0),
                                  max_changes=10)
        report = tp.run_threshold_experiment(cfg)
        assert report.rows == ()

    def test_deterministic_reports(self, gauss_params):
        cfg = tp.ExperimentConfig(generator=gauss_params, densities=(2.5,), trials=4,
                                  seed=99, support=(-4, 4), window=(-6.0, 6.0),
                                  max_changes=14)
        r1 = tp.run_threshold_experiment(cfg)
        r2 = tp.run_threshold_experiment(cfg)
        assert r1.csv_text() == r2.csv_text()
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_success_at_good_density(self, gauss_params):
        cfg = tp.ExperimentConfig(generator=gauss_params, densities=(2.5,), trials=6,
                                  seed=42, support=(-6, 6), window=(-8.0, 8.0),
                                  max_changes=18)
        report = tp.run_threshold_experiment(cfg)
        assert report.success_rates() == (1.0,)

    def test_failure_below_sampling_threshold(self, gauss_params):
        cfg = tp.ExperimentConfig(generator=gauss_params, densities=(0.8,), trials=6,
                                  seed=42, support=(-6, 6), window=(-8.0, 8.0),
                                  max_changes=18)
        report = tp.run_threshold_experiment(cfg)
        assert report.success_rates()[0] <= 0.5
        row = report.rows[0]
        assert row.rank_deficient == row.trials
        assert (row.successes, row.budget_exceeded, row.wrong_recovery) == (0, 0, 0)
        assert report.to_json_dict()["rows"][0]["rank_deficient"] == row.trials

    def test_failure_reasons(self, gauss_params):
        # Noise far above the acceptance tolerance: no pattern fits.
        cfg = tp.ExperimentConfig(generator=gauss_params, densities=(2.5,), trials=4,
                                  seed=31, support=(-4, 4), window=(-6.0, 6.0),
                                  max_changes=14, noise=1e-3)
        row = tp.run_threshold_experiment(cfg).rows[0]
        assert (row.successes, row.rank_deficient, row.budget_exceeded,
                row.wrong_recovery) == (0, 0, 4, 0)
        assert math.isnan(row.mean_residual)
        # As many samples as coefficients: some pattern fits exactly, but it
        # need not be the truth's.
        cfg = tp.ExperimentConfig(generator=gauss_params, densities=(0.8,), trials=3,
                                  seed=11, support=(-4, 4), window=(-6.0, 6.0),
                                  max_changes=14)
        row = tp.run_threshold_experiment(cfg).rows[0]
        assert (row.successes, row.rank_deficient, row.budget_exceeded,
                row.wrong_recovery) == (0, 0, 0, 3)
        assert row.mean_residual < 1e-12

    def test_success_rate_monotone_in_density(self, gauss_params):
        cfg = tp.ExperimentConfig(generator=gauss_params,
                                  densities=(0.8, 1.4, 2.0, 2.6), trials=8,
                                  seed=31, support=(-6, 6), window=(-8.0, 8.0),
                                  max_changes=18)
        report = tp.run_threshold_experiment(cfg)
        rates = report.success_rates()
        for lo, hi in zip(rates, rates[1:]):
            assert lo <= hi + 1.0 / cfg.trials
        for row in report.rows:
            assert row.successes + row.rank_deficient + row.budget_exceeded \
                + row.wrong_recovery == row.trials

    def test_paired_points_preset(self, gauss_params):
        cfg = tp.ExperimentConfig(generator=gauss_params, densities=(2.5,), trials=4,
                                  seed=17, support=(-4, 4), window=(-6.0, 6.0),
                                  max_changes=14, pair_offset=1e-4)
        report = tp.run_threshold_experiment(cfg)
        assert report.success_rates() == (1.0,)
