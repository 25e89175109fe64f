import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import tpshift as tp
import tpshift.density as density


def lattice_points(beta, extent):
    n = int(math.floor(extent / beta))
    return tp.PointSet(points=tuple(np.arange(-n, n + 1) * beta),
                       window=(-extent, extent))


def inner_integral_quad(lam, r):
    """Adaptive-quadrature oracle for the chord-weight inner integral."""
    if lam >= r:
        return 0.0
    lo = max(lam, 1e-300)
    val, err = quad(lambda t: math.sqrt(max(t * t - lam * lam, 0.0)) / t, lo, r,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-11
    return val


def lattice_integral_bruteforce(points, alpha, r):
    """Independent pair enumeration: sum of log(r/|pair|) over the strict disk."""
    total = 0.0
    for lam in points:
        if lam == 0.0 or abs(lam) >= r:
            continue
        k = 0
        while lam * lam + (alpha * k) ** 2 < r * r:
            total += math.log(r / math.sqrt(lam * lam + (alpha * k) ** 2))
            if k > 0:
                total += math.log(r / math.sqrt(lam * lam + (alpha * k) ** 2))
            k += 1
    return 2.0 * alpha / (math.pi * r * r) * total


class TestBeurlingLower:
    def test_integer_lattice(self):
        pts = lattice_points(1.0, 1000.0)
        prof = tp.beurling_lower_profile(pts, [100.0])
        assert prof.values[0] == pytest.approx(1.0, abs=1.0 / 200.0)

    def test_third_lattice(self):
        pts = lattice_points(1.0 / 3.0, 1000.0)
        prof = tp.beurling_lower_profile(pts, [50.0])
        assert prof.values[0] == pytest.approx(3.0, abs=3.0 / 100.0)

    def test_half_empty_window_forces_zero(self):
        pts = tp.PointSet(points=tuple(np.arange(-1000.0, 0.5)),
                          window=(-1000.0, 1000.0))
        prof = tp.beurling_lower_profile(pts, [400.0])
        assert prof.values[0] == 0.0

    def test_rejects_oversized_radius(self):
        pts = lattice_points(1.0, 10.0)
        with pytest.raises(ValueError):
            tp.beurling_lower_profile(pts, [11.0])

    def test_exactness_against_dense_scan(self):
        rng = np.random.default_rng(2)
        pts = tp.PointSet(points=tuple(np.sort(rng.uniform(-30, 30, 40))),
                          window=(-30.0, 30.0))
        r = 7.0
        prof = tp.beurling_lower_profile(pts, [r])
        arr = pts.as_array()
        xs = np.linspace(-30 + r, 30 - r, 200_001)
        counts = (np.searchsorted(arr, xs + r, side="right")
                  - np.searchsorted(arr, xs - r, side="left"))
        assert prof.values[0] <= counts.min() / (2 * r) + 1e-12


class TestInnerIntegral:
    def test_origin_gives_r(self):
        assert tp.circ_inner_integral(0.0, 5.0) == 5.0

    def test_boundary_gives_zero(self):
        assert tp.circ_inner_integral(5.0, 5.0) == 0.0
        assert tp.circ_inner_integral(9.0, 5.0) == 0.0

    def test_spot_value(self):
        got = tp.circ_inner_integral(3.0, 5.0)
        assert got == pytest.approx(4.0 - 3.0 * math.acos(0.6), abs=1e-14)
        assert got == pytest.approx(1.2181, abs=1e-4)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            r = rng.uniform(0.5, 20.0)
            lam = rng.uniform(0.0, 1.2 * r)
            assert abs(tp.circ_inner_integral(lam, r)
                       - inner_integral_quad(lam, r)) < 1e-10


class TestCircDirect:
    def test_single_origin_point(self):
        pts = tp.PointSet(points=(0.0,), window=(-1.0, 1.0))
        for r in (1.0, 4.0, 10.0):
            prof = tp.circ_density_direct(pts, [r])
            assert prof.values[0] == pytest.approx(4.0 / (math.pi * r), rel=1e-14)

    def test_empty_set(self):
        pts = tp.PointSet(points=(), window=(-1.0, 1.0))
        prof = tp.circ_density_direct(pts, [2.0, 5.0])
        assert prof.values == (0.0, 0.0)

    def test_rejects_nonfinite_radii(self):
        pts = tp.PointSet(points=(0.0,), window=(-1.0, 1.0))
        for radii in ([math.nan], [math.inf], [1.0, math.inf]):
            with pytest.raises(ValueError):
                tp.circ_density_direct(pts, radii)

    def test_half_lattice_converges_to_two(self):
        pts = lattice_points(0.5, 400.0)
        prof = tp.circ_density_direct(pts, [50.0, 100.0])
        assert prof.values[-1] == pytest.approx(2.0, abs=0.05)
        assert prof.extrapolated == prof.values[-1]

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(12)
        big = np.sort(rng.uniform(-40, 40, 60))
        small = np.sort(rng.choice(big, 30, replace=False))
        radii = [5.0, 15.0, 35.0]
        pb = tp.circ_density_direct(
            tp.PointSet(points=tuple(big), window=(-40.0, 40.0)), radii)
        ps = tp.circ_density_direct(
            tp.PointSet(points=tuple(small), window=(-40.0, 40.0)), radii)
        assert all(s <= b + 1e-15 for s, b in zip(ps.values, pb.values))

    def test_origin_point_shifts_profile_by_exact_amount(self):
        rng = np.random.default_rng(13)
        base = np.sort(rng.uniform(1.0, 30.0, 20))
        with_zero = tp.PointSet(points=(0.0,) + tuple(base), window=(-1.0, 31.0))
        without = tp.PointSet(points=tuple(base), window=(-1.0, 31.0))
        for r in (2.0, 8.0, 20.0):
            a = tp.circ_density_direct(with_zero, [r]).values[0]
            b = tp.circ_density_direct(without, [r]).values[0]
            assert a - b == pytest.approx(4.0 / (math.pi * r), rel=1e-12)


class TestCircLattice:
    def test_origin_only_set_is_zero(self):
        pts = tp.PointSet(points=(0.0,), window=(-1.0, 1.0))
        prof = tp.circ_density_lattice(pts, 1.0, [2.0, 7.0])
        assert prof.values == (0.0, 0.0)

    def test_hand_enumerated_single_point(self):
        pts = tp.PointSet(points=(1.0,), window=(-2.0, 2.0))
        prof = tp.circ_density_lattice(pts, 1.0, [2.0])
        assert prof.values[0] == pytest.approx(math.log(2.0) / math.pi, rel=1e-13)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(21)
        pts_arr = np.sort(rng.uniform(-12, 12, 15))
        pts = tp.PointSet(points=tuple(pts_arr), window=(-12.0, 12.0))
        for alpha in (0.5, 1.0, math.pi / 3.0):
            got = tp.circ_density_lattice(pts, alpha, [9.0]).values[0]
            want = lattice_integral_bruteforce(pts_arr, alpha, 9.0)
            assert got == pytest.approx(want, rel=1e-12)

    def test_half_lattice_limit(self):
        pts = lattice_points(0.5, 400.0)
        prof = tp.circ_density_lattice(pts, 1.0, [100.0])
        assert prof.values[0] == pytest.approx(2.0, abs=0.05)

    def test_alpha_insensitivity_at_large_radius(self):
        pts = lattice_points(1.0, 500.0)
        r = 120.0
        vals = [tp.circ_density_lattice(pts, a, [r]).values[0] for a in (0.5, 1.0, 2.0)]
        spread = max(vals) - min(vals)
        assert spread <= 10.0 / r

    def test_radius_below_every_modulus_gives_positive_zero(self):
        # log(0.5) < 0, so an empty sum taken as 0 * log(r) would be -0.0.
        pts = tp.PointSet(points=(-1.0, 0.0, 2.0), window=(-3.0, 3.0))
        values = tp.circ_density_lattice(pts, 1.0, [0.5, 1.5]).values
        assert math.copysign(1.0, values[0]) == 1.0 and values[0] == 0.0
        # Moduli below 1.5: 1 at k = 0 and sqrt(2) at k = +-1, both from x = -1.
        want = 2.0 / (math.pi * 1.5**2) * (math.log(1.5) + 2.0 * math.log(1.5 / math.sqrt(2.0)))
        assert values[1] == pytest.approx(want, rel=1e-14)
        row = tp.check_lemma1(pts, [1.0], [0.5, 1.5]).to_json_dict()["rows"][0]
        assert math.copysign(1.0, row["lattice"]["1.0"]) == 1.0

    def test_rejects_bad_alpha(self):
        pts = lattice_points(1.0, 10.0)
        for alpha in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                tp.circ_density_lattice(pts, alpha, [2.0])


class TestLemma1Relations:
    def test_integer_lattice_relations(self):
        pts = lattice_points(1.0, 300.0)
        report = tp.check_lemma1(pts, [0.5, 1.0, math.pi / 3.0], [50.0, 100.0])
        assert report.ok
        last = report.rows[-1]
        assert last.max_form_gap <= 0.05
        assert last.direct >= last.beurling - 0.02

    def test_perturbed_lattice_equivalence_band(self):
        ks = np.arange(-500, 501, dtype=float)
        pts = tp.PointSet(points=tuple(np.sort(ks + 0.3 * np.sin(ks))),
                          window=(-501.0, 501.0))
        report = tp.check_lemma1(pts, [1.0], [60.0, 120.0])
        assert report.ok
        for row in report.rows:
            assert row.max_form_gap <= 10.0 / row.r

    def test_empty_set_trivial(self):
        pts = tp.PointSet(points=(), window=(-10.0, 10.0))
        report = tp.check_lemma1(pts, [1.0], [3.0])
        row = report.rows[0]
        assert row.direct == 0.0 and row.beurling == 0.0
        assert report.ok


class TestSubadditivity:
    def test_disjoint_shifted_lattices_give_union_equality(self):
        evens = lattice_points(2.0, 100.0)
        odds = tp.PointSet(points=tuple(np.arange(-99.0, 100.0, 2.0)),
                           window=(-100.0, 100.0))
        report = tp.circ_subadditivity(evens, odds, [10.0, 40.0])
        assert report.ok
        for row in report.rows:
            assert row.union_value == pytest.approx(row.sum_value, abs=1e-12)

    def test_identical_sets_union_is_half_the_sum(self):
        pts = lattice_points(1.0, 50.0)
        report = tp.circ_subadditivity(pts, pts, [10.0])
        row = report.rows[0]
        assert row.union_value == pytest.approx(row.sum_value / 2.0, rel=1e-14)

    def test_random_disjoint_equality(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            a = np.sort(rng.uniform(-50, 50, 25))
            b = np.sort(rng.uniform(-50, 50, 31))
            l1 = tp.PointSet(points=tuple(a), window=(-50.0, 50.0))
            l2 = tp.PointSet(points=tuple(b), window=(-50.0, 50.0))
            report = tp.circ_subadditivity(l1, l2, [8.0, 30.0])
            assert report.ok
            for row in report.rows:
                assert abs(row.union_value - row.sum_value) <= 1e-12


class TestRadiusRange:
    def test_largest_radius_evaluates_and_larger_is_refused(self):
        pts = tp.PointSet(points=(-1.0, 0.0, 2.0), window=(-3.0, 3.0))
        prof = tp.circ_density_direct(pts, [1.0, density.MAX_RADIUS])
        assert all(math.isfinite(v) for v in prof.values)
        for radii in ([1.0, 1e300], [math.nextafter(density.MAX_RADIUS, math.inf)]):
            with pytest.raises(ValueError, match="radii"):
                tp.circ_density_direct(pts, radii)
            with pytest.raises(ValueError, match="radii"):
                tp.check_lemma1(pts, [1.0], radii)


    def test_lattice_at_the_domain_ends_is_refused_without_overflow(self):
        pts = tp.PointSet(points=(-1.0, 2.0), window=(-3.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="moduli"):
                tp.circ_density_lattice(pts, density.MIN_RADIUS, [density.MAX_RADIUS])


class TestProfileType:
    def test_rejects_bad_kind_and_shapes(self):
        with pytest.raises(ValueError):
            tp.DensityProfile("bogus", (1.0,), (1.0,))
        with pytest.raises(ValueError):
            tp.DensityProfile("circ_direct", (1.0, 2.0), (1.0,))
        with pytest.raises(ValueError):
            tp.DensityProfile("circ_direct", (2.0, 1.0), (1.0, 1.0))

    def test_csv_rows_and_json(self):
        prof = tp.DensityProfile("circ_direct", (1.0, 2.0), (0.5, 0.75))
        assert prof.csv_rows() == [("circ_direct", 1.0, 0.5), ("circ_direct", 2.0, 0.75)]
        assert prof.to_json_dict()["extrapolated"] == 0.75
