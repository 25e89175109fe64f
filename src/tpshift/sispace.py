"""Shift-invariant combinations f = sum_k c_k g(. - k) and their zero sets.

Finitely supported real coefficient sequences stand in for bounded ones at
desk scale.  The module evaluates f and f', applies the first-order operator
f -> f + delta*f' that removes the matching factor from the generator, scans
for real zeros, and checks the zero-interlacing and chord-length inequality
that relate f to its image under that operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import IdenticallyZeroError
from .generator import (GeneratorParams, TimeDomainTable, build_table, eval_pieces, reduce,
                        tail_bound)

# Dropped far-tail contributions per unit coefficient stay below this.
EVAL_TAIL_TOL = 1e-13
# Scan resolution for sign changes; zeros of the test corpus separate at
# scale >= 1 so 0.02 leaves a wide margin.
SCAN_STEP = 0.02
BISECT_TOL = 1e-10
# Grid minima of |f| below this times the grid peak are touch candidates.
TOUCH_TOL = 1e-9
# Largest zero-scan grid; longer intervals are refused before allocating.
MAX_SCAN_POINTS = 2_000_000


@dataclass(frozen=True)
class CoeffSeq:
    """Finitely supported real coefficients c_offset .. c_{offset+n-1}."""

    offset: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "offset", int(self.offset))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("coefficient sequence must not be empty")
        for c in self.coeffs:
            if not math.isfinite(c):
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
            return cls(int(d["offset"]), tuple(d["coeffs"]))
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
        pts = tuple(float(p) for p in self.points)
        window = tuple(float(w) for w in self.window)
        if len(window) != 2:
            raise ValueError(f"window must be [lo, hi], got {self.window}")
        if not all(math.isfinite(v) for v in pts + window):
            raise ValueError("points and window must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "touch_points", tuple(float(p) for p in self.touch_points))
        lo, hi = window
        if not lo < hi:
            raise ValueError(f"window must be nondegenerate, got {self.window}")
        for p, q in zip(pts, pts[1:]):
            if not p < q:
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


# The bisection costs about as much as summing f's pieces, and every function
# over the same generator needs the same radius.
@lru_cache(maxsize=64)
def _tail_radius(params: GeneratorParams) -> float:
    """Radius past which g's envelope stays below EVAL_TAIL_TOL per unit coefficient."""
    return tail_bound(params).decay_radius(EVAL_TAIL_TOL * params.time_amplitude)


def support_margin(params: GeneratorParams) -> float:
    """Distance from the coefficient support edge at which window checks stay clean."""
    return 5.0 + 3.0 * math.sqrt(params.gamma) / math.pi


class SISFunction:
    """A shift combination f = sum c_k g(. - k) with cached evaluation tables.

    Tables for g and g' span the envelope decay radius plus one around 0,
    whatever the coefficients, so functions over one generator can share
    them; the step 1/N lets integer shifts move spline pieces by whole
    pieces, and the g' table is built on first use unless passed in.  f and
    f' are each one piecewise cubic, summed from all table pieces on first
    use, so evaluations anywhere have absolute error at the interpolation
    level (<= 1e-8).  Coefficients and tables are fixed after construction;
    concurrent first evaluations build the same pieces twice, which is
    harmless.
    """

    def __init__(self, params: GeneratorParams, coeffs: CoeffSeq,
                 table: TimeDomainTable | None = None,
                 deriv_table: TimeDomainTable | None = None):
        self.params = params
        self.coeffs = coeffs
        for t in (table, deriv_table):
            if t is not None and t.steps_per_unit is None:
                raise ValueError(f"table grid step {t.grid_step} is not 1/N for an integer N")
        self.table = self._build_table() if table is None else table
        if deriv_table is not None:
            self.deriv_table = deriv_table

    @cached_property
    def deriv_table(self) -> TimeDomainTable:
        return self._build_table(deriv=True)

    def _build_table(self, deriv: bool = False) -> TimeDomainTable:
        # The extra unit covers g', which g's envelope does not bound directly.
        half_width = _tail_radius(self.params) + 1.0
        # Resolve relative to the Gaussian width so quartic interpolation
        # error stays below the evaluation contract for sharp generators.
        step = 1.0 / math.ceil(125.0 * max(1.0, math.sqrt(self.params.gauss_rate)))
        return build_table(self.params, half_width, step, deriv=deriv)

    @cached_property
    def _pieces(self):
        return self.table.shift_sum(self.coeffs.support_indices(), self.coeffs.coeffs)

    @cached_property
    def _deriv_pieces(self):
        return self.deriv_table.shift_sum(self.coeffs.support_indices(), self.coeffs.coeffs)

    def support_window(self) -> tuple:
        ks = self.coeffs.support_indices()
        pad = support_margin(self.params)
        return (float(ks[0] - pad), float(ks[-1] + pad))


def _eval_at(pieces, x):
    vals = eval_pieces(pieces, x)
    return float(vals) if np.ndim(x) == 0 else vals


def eval_f(f: SISFunction, x):
    """Evaluate f(x) = sum_k c_k g(x - k); accepts a scalar or an array."""
    return _eval_at(f._pieces, x)


def eval_deriv(f: SISFunction, x):
    """Evaluate f'(x) = sum_k c_k g'(x - k)."""
    return _eval_at(f._deriv_pieces, x)


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


def find_zeros(f: SISFunction, interval: tuple) -> PointSet:
    """Locate the sign-change zeros of f on an interval.

    Scans at SCAN_STEP, then bisects each bracket to absolute tolerance
    BISECT_TOL.  Zeros are simple sign changes, counted without multiplicity;
    grid local minima of |f| below TOUCH_TOL times the grid peak without an
    adjacent sign change are flagged as touch candidates instead of resolved.
    Raises ValueError when the scan grid would exceed MAX_SCAN_POINTS.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval must be finite and nondegenerate, got {interval}")
    steps = (hi - lo) / SCAN_STEP
    if not steps < MAX_SCAN_POINTS:
        raise ValueError(
            f"interval [{lo}, {hi}] at step {SCAN_STEP} needs more than "
            f"{MAX_SCAN_POINTS} scan points")
    n = int(math.ceil(steps)) + 1
    grid = np.linspace(lo, hi, n)
    vals = eval_f(f, grid)

    scale = np.max(np.abs(vals))
    # Below this peak nothing on the grid rises above the tails the
    # evaluation drops, so no sign change is meaningful.
    floor = f.params.time_amplitude * sum(abs(c) for c in f.coeffs.coeffs) * EVAL_TAIL_TOL
    if scale <= floor:
        raise IdenticallyZeroError(
            f"f is numerically zero on [{lo}, {hi}] ({scale:.3e} peak)")

    zeros = []
    exact = np.abs(vals) == 0.0
    prod = vals[:-1] * vals[1:]
    bracket_lo = []
    bracket_hi = []
    for i in np.nonzero(prod < 0.0)[0]:
        # Skip noise brackets deep in the tails.
        if max(abs(vals[i]), abs(vals[i + 1])) < 1e-12 * scale:
            continue
        bracket_lo.append(grid[i])
        bracket_hi.append(grid[i + 1])
    for i in np.nonzero(exact)[0]:
        if 0 < i < n - 1 and vals[i - 1] * vals[i + 1] < 0.0:
            zeros.append(float(grid[i]))

    if bracket_lo:
        a = np.asarray(bracket_lo)
        b = np.asarray(bracket_hi)
        fa = eval_f(f, a)
        steps = int(math.ceil(math.log2(SCAN_STEP / BISECT_TOL))) + 4
        for _ in range(steps):
            mid = 0.5 * (a + b)
            fm = eval_f(f, mid)
            go_right = fa * fm > 0.0
            a = np.where(go_right, mid, a)
            fa = np.where(go_right, fm, fa)
            b = np.where(go_right, b, mid)
        zeros.extend((0.5 * (a + b)).tolist())

    touches = []
    inner = np.arange(1, n - 1)
    is_min = (np.abs(vals[inner]) <= np.abs(vals[inner - 1])) & \
             (np.abs(vals[inner]) <= np.abs(vals[inner + 1]))
    small = np.abs(vals[inner]) < TOUCH_TOL * scale
    crossing = (prod[inner - 1] < 0.0) | (prod[inner] < 0.0)
    nonzero_here = np.abs(vals[inner]) > 0.0
    for i in inner[is_min & small & ~crossing & nonzero_here]:
        touches.append(float(grid[i]))

    return PointSet(points=tuple(sorted(zeros)), window=(lo, hi),
                    touch_points=tuple(touches))


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
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")

    def chord_sum(ps: PointSet) -> float:
        x = ps.as_array()
        x = x[np.abs(x) <= t]
        return float(np.sum(np.sqrt(np.maximum(t * t - x * x, 0.0))))

    lhs = chord_sum(zf)
    rhs = 2.0 * t + chord_sum(zf1)
    return SegmentReport(t=t, lhs=lhs, rhs=rhs, ok=lhs <= rhs + 1e-12)
