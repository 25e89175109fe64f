"""Shift-invariant combinations f = sum_k c_k g(. - k) and their zero sets.

Finitely supported real coefficient sequences stand in for bounded ones at
desk scale.  The module evaluates f and f', applies the first-order operator
f -> f + delta*f' that removes the matching factor from the generator, scans
for real zeros, and checks the zero-interlacing and chord-length inequality
that relate f to its image under that operator.

f is held as its generator table's cell pieces summed over the shifts: one
polynomial per cell [j/N, (j+1)/N).  The zero scan samples a grid that
divides every cell into the same q steps, so its values are one product of
the pieces with a fixed matrix of local powers, and each sign change lies
inside one cell, where Newton steps from the secant point run on that
cell's polynomial alone.  A few passes over the scan values give the
indices of the sign changes and of the small values; the remaining tests,
and the grid coordinates, are formed for those indices only.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import IdenticallyZeroError
from .generator import (CELL_DEGREE, EVAL_TAIL_TOL, GeneratorParams, TimeDomainTable,
                        build_table, eval_pieces, reduce)

# Largest scan step for sign changes; zeros of the test corpus separate at
# scale >= 1 so 0.02 leaves a wide margin.  The scan divides each table cell
# 1/N into q = ceil(1/(N*SCAN_STEP)) equal steps.
SCAN_STEP = 0.02
BISECT_TOL = 1e-10
# Grid minima of |f| below this times the grid peak are touch candidates.
TOUCH_TOL = 1e-9
# Largest zero-scan grid, counted at its step 1/(N*q); longer intervals are
# refused before allocating.
MAX_SCAN_POINTS = 2_000_000
# Largest |offset|: piece indices k*N stay inside int64 for every cell width 1/N.
MAX_OFFSET = 2**31
# Range of every radius, chord radius t and lattice step alpha: the density
# profiles divide by pi r^2, and both pi r^2 and 1/(pi r^2) stay finite,
# nonzero doubles between these ends.
MAX_RADIUS = math.sqrt(sys.float_info.max / math.pi)
MIN_RADIUS = 1.0 / MAX_RADIUS


def _radius(value, name: str) -> float:
    """value as a float in [MIN_RADIUS, MAX_RADIUS]; ValueError naming it otherwise."""
    value = float(value)
    if not MIN_RADIUS <= value <= MAX_RADIUS:  # NaN fails too
        raise ValueError(
            f"{name} must lie in [{MIN_RADIUS:.3g}, {MAX_RADIUS:.3g}], got {value}")
    return value


def _int_value(obj, name: str) -> int:
    """An integer from JSON: ints and integral floats pass, bools and the rest are refused."""
    if isinstance(obj, float) and obj.is_integer():
        obj = int(obj)
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ValueError(f"{name} must be an integer, got {obj!r}")
    return obj


@dataclass(frozen=True)
class CoeffSeq:
    """Finitely supported real coefficients c_offset .. c_{offset+n-1}."""

    offset: int  # |offset| <= MAX_OFFSET
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "offset", int(self.offset))
        object.__setattr__(self, "coeffs", tuple(map(float, self.coeffs)))
        if not abs(self.offset) <= MAX_OFFSET:
            raise ValueError(f"|offset| must be at most {MAX_OFFSET}, got {self.offset}")
        if len(self.coeffs) == 0:
            raise ValueError("coefficient sequence must not be empty")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError("coefficients must be finite")

    def support_indices(self) -> np.ndarray:
        return self.offset + np.arange(len(self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def to_json_dict(self) -> dict:
        return {"offset": self.offset, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CoeffSeq":
        if not isinstance(d, dict) or set(d) - {"offset", "coeffs"}:
            raise ValueError("coefficient sequence must be {'offset': int, 'coeffs': [...]}")
        try:
            return cls(_int_value(d["offset"], "offset"), tuple(d["coeffs"]))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"invalid coefficient sequence: {exc}") from exc


@dataclass(frozen=True)
class PointSet:
    """Finite sorted set of real points with its observation window.

    touch_points carries flagged near-touch locations from a zero scan (grid
    local minima of |f| below TOUCH_TOL times the scan peak without a sign
    change); they are kept out of `points`, which holds sign-change zeros
    only.
    """

    points: tuple
    window: tuple
    touch_points: tuple = ()

    def __post_init__(self):
        pts = tuple(map(float, self.points))
        window = tuple(map(float, self.window))
        if len(window) != 2:
            raise ValueError(f"window must be [lo, hi], got {self.window}")
        if not all(map(math.isfinite, pts + window)):
            raise ValueError("points and window must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "touch_points", tuple(map(float, self.touch_points)))
        lo, hi = window
        if not lo < hi:
            raise ValueError(f"window must be nondegenerate, got {self.window}")
        if not all(map(operator.lt, pts, pts[1:])):
            raise ValueError("points must be strictly increasing")
        if pts and (pts[0] < lo or pts[-1] > hi):
            raise ValueError("window must contain all points")

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def to_json_dict(self) -> dict:
        return {"points": list(self.points), "window": list(self.window)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PointSet":
        if not isinstance(d, dict) or set(d) - {"points", "window"}:
            raise ValueError("point set must be {'points': [...], 'window': [lo, hi]}")
        try:
            return cls(tuple(d["points"]), tuple(d["window"]))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"invalid point set: {exc}") from exc


class SISFunction:
    """A shift combination f = sum c_k g(. - k) with its evaluation tables.

    The tables of g and g' come from build_table, which fixes their extent
    and cells from the generator alone; a passed table must tabulate this
    generator's g, and a passed deriv_table its g' (ValueError otherwise).
    The g' table is built on first use unless passed in.  f and f' are each
    one array of cell pieces with its first cell (TimeDomainTable.shift_sum),
    summed from all table pieces on first use, so they err by at most
    5e-12 * amplitude * sum|c_k| anywhere.
    """

    def __init__(self, params: GeneratorParams, coeffs: CoeffSeq,
                 table: TimeDomainTable | None = None,
                 deriv_table: TimeDomainTable | None = None):
        self.params = params
        self.coeffs = coeffs
        for name, t, deriv in (("table", table, False), ("deriv_table", deriv_table, True)):
            if t is not None and (t.params, t.deriv) != (params, deriv):
                raise ValueError(f"{name} tabulates {t.params} with deriv={t.deriv}, "
                                 f"not {params} with deriv={deriv}")
        self.table = build_table(params) if table is None else table
        if deriv_table is not None:
            self.deriv_table = deriv_table

    @cached_property
    def deriv_table(self) -> TimeDomainTable:
        return build_table(self.params, deriv=True)

    @cached_property
    def _pieces(self):
        return self.table.shift_sum(self.coeffs.offset, self.coeffs.coeffs)

    @cached_property
    def _deriv_pieces(self):
        return self.deriv_table.shift_sum(self.coeffs.offset, self.coeffs.coeffs)

    @cached_property
    def _tail_floor(self) -> float:
        """amp * sum|c_k| * EVAL_TAIL_TOL, the tails the evaluation may drop.

        The sum runs over |c_k|/max|c_k|, so it stays finite where sum|c_k|
        would overflow; 0 for all-zero coefficients.
        """
        mags = np.abs(self.coeffs.coeffs)
        top = float(mags.max())
        if top == 0.0:
            return 0.0
        return float((mags / top).sum()) * self.params.time_amplitude * EVAL_TAIL_TOL * top

    def support_window(self) -> tuple:
        """The coefficient support padded by the table half-width; f is 0 outside it."""
        ks = self.coeffs.support_indices()
        pad = -self.table.first_cell / self.table.cells_per_unit
        return (float(ks[0] - pad), float(ks[-1] + pad))


def _eval_at(f: SISFunction, pieces: tuple, x):
    first, coef = pieces
    vals = eval_pieces(coef, first, f.table.cells_per_unit, x)
    return float(vals) if np.ndim(x) == 0 else vals


def eval_f(f: SISFunction, x):
    """Evaluate f(x) = sum_k c_k g(x - k); accepts a scalar or an array."""
    return _eval_at(f, f._pieces, x)


def eval_deriv(f: SISFunction, x):
    """Evaluate f'(x) = sum_k c_k g'(x - k)."""
    return _eval_at(f, f._deriv_pieces, x)


def apply_rolle_op(f: SISFunction, delta: float) -> SISFunction:
    """Map f to f + delta*f', realized over the reduced generator.

    Multiplying the transform by (1 + 2*pi*i*delta*xi) cancels the matching
    first-order factor, so the image keeps the same coefficients over the
    generator with that factor removed.  delta must equal the last factor
    shift of f's generator.
    """
    if f.params.m == 0:
        raise ValueError("generator has no first-order factor to cancel")
    if float(delta) != f.params.deltas[-1]:
        raise ValueError(
            f"delta {delta} does not match the generator's last factor {f.params.deltas[-1]}")
    return SISFunction(reduce(f.params), f.coeffs)


def _refine_on_pieces(rows: np.ndarray, cells: np.ndarray, n_per: int, a: np.ndarray,
                      b: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """One zero in each bracket [a, b] inside cell [j/N, (j+1)/N) where f changes sign.

    Row i of rows is the polynomial in u = N*x - j on the cell j = cells[i]
    of bracket i, highest power first, and N = n_per; fa and fb are f's
    values of opposite signs at the ends.  All brackets at once, by Newton
    steps through the polynomial and its derivative from the secant point
    of (a, fa) and (b, fb), or the midpoint where that is not strictly
    inside.  A step falls back to bisection whenever it would leave the
    shrinking bracket or fails to halve the previous step.  A bracket is
    done once a step, taken or only proposed, is below BISECT_TOL/16, the
    four halvings of headroom that bisection from SCAN_STEP used to take,
    and all stop after at most as many steps as that bisection.
    """
    exponents = np.arange(rows.shape[1] - 1, -1, -1)
    # The derivative's rows in dP/dx = N dP/du, against the powers u^(n-1) .. u^0.
    deriv_rows = rows[:, :-1] * (n_per * exponents[:-1])
    sign_a = np.sign(fa)
    lo, hi = a, b
    last_step = b - a
    done = np.zeros(a.shape, dtype=bool)
    with np.errstate(all="ignore"):
        t = a + last_step * (fa / (fa - fb))
        t = np.where((t > a) & (t < b), t, 0.5 * (a + b))
        for _ in range(int(math.ceil(math.log2(SCAN_STEP / BISECT_TOL))) + 4):
            powers = (t * n_per - cells)[:, None] ** exponents
            p = np.einsum("ij,ij->i", rows, powers)
            dp = np.einsum("ij,ij->i", deriv_rows, powers[:, 1:])
            same = np.sign(p) == sign_a
            lo = np.where(same, t, lo)
            hi = np.where(same, hi, t)
            step = p / dp
            newton = t - step
            size = np.abs(step)
            use_newton = (newton > lo) & (newton < hi) & (2.0 * size < last_step)
            # Within the tolerance of the zero t is often a bracket end, and the
            # proposed step then points out of the bracket: its size alone ends it.
            done |= (p == 0.0) | (size < BISECT_TOL / 16.0)
            t_next = np.where(done, t, np.where(use_newton, newton, 0.5 * (lo + hi)))
            last_step = np.abs(t_next - t)
            done |= last_step < BISECT_TOL / 16.0
            t = t_next
            if done.all():
                break
    return t


@lru_cache(maxsize=None)
def _local_powers(q: int) -> np.ndarray:
    """The (CELL_DEGREE + 1) x q matrix of (k/q)^p, highest power first."""
    powers = np.vander(np.arange(q) / q, CELL_DEGREE + 1).T
    powers.flags.writeable = False
    return powers


def _scan(f: SISFunction, lo: float, hi: float) -> tuple:
    """f's values on the scan grid of [lo, hi], and the grid's (start, res).

    The grid is lo, the points k/res strictly between lo and hi, and hi,
    with res = N*q, N = cells_per_unit and q = ceil(1/(N*SCAN_STEP)), so
    every cell holds q steps of at most SCAN_STEP; point i other than the
    two ends lies at (start + i)/res.  f is exactly 0 outside its cells,
    and only the grid points inside them are evaluated, all of them by one
    product of the cells' pieces with the powers (k/q)^p, k = 0 .. q-1; the
    ends go through eval_f.  ValueError when the grid would exceed
    MAX_SCAN_POINTS.
    """
    n_per = f.table.cells_per_unit
    q = math.ceil(1.0 / (n_per * SCAN_STEP))
    res = n_per * q
    if not (hi - lo) * res + 3.0 <= MAX_SCAN_POINTS:
        raise ValueError(f"interval [{lo}, {hi}] at step 1/{res} needs more than "
                         f"{MAX_SCAN_POINTS} scan points")
    first, coef = f._pieces
    # The grid indices strictly inside (lo, hi) and inside f's cells.  The
    # loops only undo the rounding of lo*res and hi*res, and run only where
    # those indices meet the cells, so they take a step or two.
    i0 = max(first * q, math.floor(lo * res))
    i1 = min((first + coef.shape[0]) * q - 1, math.ceil(hi * res))
    while i0 <= i1 and i0 / res <= lo:
        i0 += 1
    while i0 <= i1 and i1 / res >= hi:
        i1 -= 1
    vals = np.empty(max(i1 - i0 + 1, 0) + 2)
    vals[[0, -1]] = eval_f(f, np.array([lo, hi]))
    if i0 <= i1:
        # Point i lies at position i - j0*q of the cells j0 .. j1 flattened.
        j0, j1 = i0 // q, i1 // q
        inner = coef[j0 - first:j1 - first + 1] @ _local_powers(q)
        vals[1:-1] = inner.ravel()[i0 - j0 * q:i1 - j0 * q + 1]
    return vals, i0 - 1, res


def find_zeros(f: SISFunction, interval: tuple) -> PointSet:
    """Locate the sign-change zeros of f on an interval.

    Scans on a grid aligned with f's cells (_scan), then refines each
    bracket on its cell's polynomial to absolute tolerance BISECT_TOL,
    starting from the secant point of its two grid values.  Zeros are
    simple sign changes, found from the signs of the scan values and
    counted without multiplicity; grid local minima of |f| below TOUCH_TOL
    times the grid peak without an adjacent sign change are flagged as
    touch candidates instead of resolved.  A few passes over the grid find
    the indices of sign changes and of small values; every other test runs
    on those indices alone.  Raises IdenticallyZeroError when the grid peak
    is at most f's tail floor (SISFunction._tail_floor) and ValueError when
    the scan grid would exceed MAX_SCAN_POINTS.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval must be finite and nondegenerate, got {interval}")
    vals, start, res = _scan(f, lo, hi)
    n = vals.size
    absv = np.abs(vals)
    scale = absv.max()
    if scale <= f._tail_floor:
        raise IdenticallyZeroError(
            f"f is numerically zero on [{lo}, {hi}] ({scale:.3e} peak)")

    # Signs, not products of values: a product of small values underflows
    # to 0 and one of large values overflows.  Every sign change, and every
    # exact zero between values of opposite signs, changes vals < 0.
    neg = vals < 0.0
    change = np.flatnonzero(neg[:-1] != neg[1:])
    va, vb = vals[change], vals[change + 1]
    crossing = (va != 0.0) & (vb != 0.0)
    # Skip noise brackets deep in the tails.
    brackets = change[crossing & (np.maximum(absv[change], absv[change + 1])
                                  >= 1e-12 * scale)]
    zeros = np.zeros(0)
    if brackets.size:
        a, b = (start + brackets) / res, (start + brackets + 1) / res
        if brackets[0] == 0:
            a[0] = lo
        if brackets[-1] == n - 2:
            b[-1] = hi
        first, coef = f._pieces
        q = res // f.table.cells_per_unit
        # Bracket i spans the grid step from index start + i, inside one cell.
        idx = np.clip((start + brackets) // q - first, 0, coef.shape[0] - 1)
        zeros = _refine_on_pieces(coef[idx], idx + float(first), f.table.cells_per_unit,
                                  a, b, vals[brackets], vals[brackets + 1])
    if not crossing.all():
        # Exact zeros on the grid between values of opposite signs.
        exact = np.concatenate([change[va == 0.0], change[vb == 0.0] + 1])
        exact = exact[(exact > 0) & (exact < n - 1)]
        exact = exact[np.sign(vals[exact - 1]) * np.sign(vals[exact + 1]) < 0.0]
        zeros = np.sort(np.concatenate([zeros, (start + exact) / res]))

    small = np.flatnonzero(absv[1:-1] < TOUCH_TOL * scale) + 1
    if small.size:
        here, left, right = vals[small], vals[small - 1], vals[small + 1]
        sign = np.sign(here)
        small = small[(here != 0.0) & (absv[small] <= np.abs(left))
                      & (absv[small] <= np.abs(right))
                      & (np.sign(left) * sign >= 0.0) & (sign * np.sign(right) >= 0.0)]
    return PointSet(points=tuple(zeros.tolist()), window=(lo, hi),
                    touch_points=tuple(((start + small) / res).tolist()))


@dataclass(frozen=True)
class InterlaceReport:
    """Outcome of the nonnegative/nonpositive zero-interlacing check."""

    ok: bool
    ok_nonneg: bool
    ok_nonpos: bool
    missing_nonneg: tuple
    missing_nonpos: tuple


def _gaps_without_partner(ordered: np.ndarray, partner: np.ndarray) -> list:
    missing = []
    for a, b in zip(ordered[:-1], ordered[1:]):
        j = np.searchsorted(partner, a, side="right")
        if j >= len(partner) or partner[j] >= b:
            missing.append((float(a), float(b)))
    return missing


def check_interlacing(zf: PointSet, zf1: PointSet) -> InterlaceReport:
    """Check that between consecutive same-sign zeros of f lies a zero of f1.

    The nonnegative zeros of f are ordered increasingly and each open gap
    must contain a point of zf1; mirrored for the nonpositive zeros.  Since
    the gaps are disjoint, one partner per gap is a full interlacing
    certificate.  Empty or singleton sides are vacuously true.
    """
    lam = zf.as_array()
    gam = zf1.as_array()
    miss_pos = _gaps_without_partner(lam[lam >= 0.0], gam)
    miss_neg = _gaps_without_partner(lam[lam <= 0.0], gam)
    ok_pos = not miss_pos
    ok_neg = not miss_neg
    return InterlaceReport(ok=ok_pos and ok_neg, ok_nonneg=ok_pos, ok_nonpos=ok_neg,
                           missing_nonneg=tuple(miss_pos), missing_nonpos=tuple(miss_neg))


@dataclass(frozen=True)
class SegmentReport:
    """Chord-length comparison between two zero sets inside a disk of radius t."""

    t: float
    lhs: float
    rhs: float
    ok: bool


def segment_inequality(zf: PointSet, zf1: PointSet, t: float) -> SegmentReport:
    """Compare sum of vertical chord lengths of the radius-t disk over both sets.

    lhs = sum over zf inside [-t, t] of sqrt(t^2 - x^2); rhs = 2t plus the
    same sum over zf1.  Reports both and whether lhs <= rhs + 1e-12.
    """
    t = _radius(t, "t")

    def chord_sum(ps: PointSet) -> float:
        x = ps.as_array()
        x = x[np.abs(x) <= t]
        return float(np.sum(np.sqrt(np.maximum(t * t - x * x, 0.0))))

    lhs = chord_sum(zf)
    rhs = 2.0 * t + chord_sum(zf1)
    return SegmentReport(t=t, lhs=lhs, rhs=rhs, ok=lhs <= rhs + 1e-12)
