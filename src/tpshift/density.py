"""Finite-radius density estimates for point sets on the line.

Three estimators share one report type:

* ``beurling_lower`` -- worst-case count of points per window length 2r,
  with the window center restricted to positions admissible inside the
  observation window;
* ``circ_direct`` -- radial average weighting each point x in [-t, t] by the
  vertical chord length 2*sqrt(t^2 - x^2)/2 of the disk B_t(0) above it:
  (4/(pi r^2)) * integral_0^r sum_{|x|<=t} sqrt(t^2 - x^2) dt/t;
* ``circ_lattice`` -- the equivalent planar form counting points of
  (set \\ {0}) x alpha*Z inside growing disks:
  (2 alpha/(pi r^2)) * integral_0^r #[... in B_t(0)] dt/t.

True limits are not computable from finite data; profiles report finite-r
values with the largest radius as the working estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sispace import PointSet

PROFILE_KINDS = ("beurling_lower", "circ_direct", "circ_lattice")
# Largest lattice enumeration; larger radii are refused before allocating.
MAX_PAIR_MODULI = 20_000_000


@dataclass(frozen=True)
class DensityProfile:
    """Finite-radius profile of one density estimator."""

    kind: str
    radii: tuple
    values: tuple
    extrapolated: float = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"kind must be one of {PROFILE_KINDS}, got {self.kind!r}")
        radii = tuple(float(r) for r in self.radii)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if len(radii) != len(values):
            raise ValueError("radii and values must have equal length")
        if any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be positive and strictly increasing")
        if any(v < -1e-15 for v in values):
            raise ValueError("density values must be nonnegative")
        if self.extrapolated is None:
            object.__setattr__(self, "extrapolated", values[-1] if values else 0.0)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "radii": list(self.radii),
                "values": list(self.values), "extrapolated": self.extrapolated}

    def csv_rows(self) -> list:
        return [(self.kind, r, v) for r, v in zip(self.radii, self.values)]


def _validate_radii(radii) -> np.ndarray:
    arr = np.asarray(list(radii), dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0) \
            or np.any(np.diff(arr) <= 0):
        raise ValueError("radii must be a nonempty increasing list of finite positive reals")
    return arr


def beurling_lower_profile(points: PointSet, radii) -> DensityProfile:
    """Worst-case window-count profile inf_x #[set in [x-r, x+r]] / (2r).

    The center x ranges over [lo+r, hi-r] so the counting window stays inside
    the observation window.  The count is piecewise constant in x with
    breakpoints where a window endpoint meets a point, so evaluating it at
    interval midpoints between breakpoints (plus both admissible extremes)
    attains the infimum exactly.
    """
    rs = _validate_radii(radii)
    lo, hi = points.window
    pts = points.as_array()
    values = []
    for r in rs:
        a, b = lo + r, hi - r
        if a > b:
            raise ValueError(
                f"radius {r} exceeds half the window length {(hi - lo) / 2}")
        bps = np.concatenate([pts - r, pts + r])
        bps = np.unique(bps[(bps > a) & (bps < b)])
        edges = np.concatenate([[a], bps, [b]])
        cands = np.concatenate([[a, b], 0.5 * (edges[:-1] + edges[1:])])
        counts = (np.searchsorted(pts, cands + r, side="right")
                  - np.searchsorted(pts, cands - r, side="left"))
        values.append(float(counts.min()) / (2.0 * r))
    return DensityProfile("beurling_lower", tuple(rs), tuple(values))


def circ_inner_integral(lambda_abs: float, r: float) -> float:
    """Closed form of integral_0^r [|x| <= t] sqrt(t^2 - x^2) dt/t.

    Zero for |x| > r, equal to r at x = 0, and otherwise
    sqrt(r^2 - x^2) - |x| * arccos(|x|/r), the antiderivative of
    sqrt(t^2 - x^2)/t evaluated between t = |x| and t = r.
    """
    lam = float(lambda_abs)
    r = float(r)
    if not lam >= 0:
        raise ValueError("lambda_abs must be nonnegative")
    if not r > 0:
        raise ValueError("r must be positive")
    return float(_inner_vec(np.array([lam]), r)[0])


def _inner_vec(lam_abs: np.ndarray, r: float) -> np.ndarray:
    out = np.zeros_like(lam_abs)
    inside = lam_abs < r
    x = lam_abs[inside]
    out[inside] = np.sqrt(r * r - x * x) - x * np.arccos(np.minimum(x / r, 1.0))
    return out


def circ_density_direct(points: PointSet, radii) -> DensityProfile:
    """Chord-weighted radial-average profile, exact for finite sets.

    For each r the value is (4/(pi r^2)) * sum over points with |x| <= r of
    the closed-form inner integral; sum and integral swap over a finite set.
    """
    rs = _validate_radii(radii)
    lam = np.abs(points.as_array())
    values = []
    for r in rs:
        total = float(np.sum(_inner_vec(lam, r)))
        values.append(4.0 / (math.pi * r * r) * total)
    return DensityProfile("circ_direct", tuple(rs), tuple(values))


def pair_moduli(points: PointSet, alpha: float, r_max: float) -> np.ndarray:
    """Sorted moduli sqrt(x^2 + (alpha k)^2) <= r_max over (set\\{0}) x alpha*Z.

    Also the vertical zero lattice of jensen at alpha = pi/a.  Moduli at r_max
    carry no weight for any caller.  Raises ValueError before allocating more
    than MAX_PAIR_MODULI moduli.
    """
    lam = points.as_array()
    lam = np.abs(lam[lam != 0.0])
    lam = lam[lam < r_max]
    if lam.size == 0:
        return np.empty(0)
    s = np.sqrt(r_max * r_max - lam * lam)
    kmax = np.floor(s / alpha)
    # k = 0 contributes once, each k >= 1 twice.
    if not np.sum(2.0 * kmax + 1.0) <= MAX_PAIR_MODULI:
        raise ValueError(f"lattice at step {alpha} up to radius {r_max} has more "
                         f"than {MAX_PAIR_MODULI} moduli")
    kmax = kmax.astype(np.int64)
    flat_lam = np.repeat(lam, kmax + 1)
    offsets = np.repeat(np.cumsum(kmax + 1) - (kmax + 1), kmax + 1)
    flat_k = np.arange(flat_lam.size, dtype=np.int64) - offsets
    mods = np.sqrt(flat_lam**2 + (alpha * flat_k) ** 2)
    mods = np.concatenate([mods, mods[flat_k > 0]])
    mods.sort()
    return mods


def circ_density_lattice(points: PointSet, alpha: float, radii) -> DensityProfile:
    """Planar lattice-counting profile (2 alpha/(pi r^2)) integral_0^r N(t)/t dt.

    N(t) counts pairs (x, alpha*k), x a nonzero point, with x^2 + alpha^2 k^2
    strictly below t^2.  N(t)/t is piecewise constant between the pair moduli,
    so the integral telescopes to sum over moduli m < r of log(r/m), which is
    evaluated exactly from the sorted moduli and prefix sums of their logs.
    """
    alpha = float(alpha)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    rs = _validate_radii(radii)
    mods = pair_moduli(points, alpha, float(rs[-1]))
    prefix = np.concatenate([[0.0], np.cumsum(np.log(mods))]) if mods.size else np.zeros(1)
    values = []
    for r in rs:
        j = int(np.searchsorted(mods, r, side="left"))
        integral = j * math.log(r) - prefix[j]
        values.append(2.0 * alpha / (math.pi * r * r) * integral)
    return DensityProfile("circ_lattice", tuple(rs), tuple(values))


@dataclass(frozen=True)
class Lemma1Row:
    r: float
    direct: float
    beurling: float
    lattice: tuple  # (alpha, value) pairs
    max_form_gap: float
    domination_gap: float
    domination_slack: float
    domination_ok: bool


@dataclass(frozen=True)
class RelationReport:
    """Per-radius comparison of the two circular forms and the lower density."""

    rows: tuple

    @property
    def ok(self) -> bool:
        return all(row.domination_ok for row in self.rows)

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "rows": [
            {"r": w.r, "direct": w.direct, "beurling": w.beurling,
             "lattice": {str(a): v for a, v in w.lattice},
             "max_form_gap": w.max_form_gap,
             "domination_gap": w.domination_gap,
             "domination_slack": w.domination_slack,
             "domination_ok": w.domination_ok} for w in self.rows]}


def check_lemma1(points: PointSet, alphas, radii) -> RelationReport:
    """Cross-check the two circular forms and their domination of the lower density.

    For each radius, reports the direct value, each lattice value (the form
    gap shrinks like O(1/r)), and direct - beurling, which should be
    nonnegative up to finite-size slack 2/r * (1 + max alpha).
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must be nonempty")
    rs = _validate_radii(radii)
    direct = circ_density_direct(points, rs)
    beurling = beurling_lower_profile(points, rs)
    lattice = {a: circ_density_lattice(points, a, rs) for a in alphas}
    rows = []
    for i, r in enumerate(rs):
        lat = tuple((a, lattice[a].values[i]) for a in alphas)
        gap = max(abs(direct.values[i] - v) for _, v in lat)
        dom = direct.values[i] - beurling.values[i]
        slack = 2.0 / r * (1.0 + max(alphas))
        rows.append(Lemma1Row(r=float(r), direct=direct.values[i],
                              beurling=beurling.values[i], lattice=lat,
                              max_form_gap=float(gap), domination_gap=float(dom),
                              domination_slack=float(slack),
                              domination_ok=bool(dom >= -slack)))
    return RelationReport(rows=tuple(rows))


@dataclass(frozen=True)
class SubadditivityRow:
    r: float
    union_value: float
    sum_value: float
    ok: bool


@dataclass(frozen=True)
class SubadditivityReport:
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "rows": [
            {"r": w.r, "union": w.union_value, "sum": w.sum_value, "ok": w.ok}
            for w in self.rows]}


def union_points(l1: PointSet, l2: PointSet) -> PointSet:
    merged = np.union1d(l1.as_array(), l2.as_array())
    window = (min(l1.window[0], l2.window[0]), max(l1.window[1], l2.window[1]))
    return PointSet(points=tuple(merged), window=window)


def circ_subadditivity(l1: PointSet, l2: PointSet, radii) -> SubadditivityReport:
    """Check profile(union) <= profile(l1) + profile(l2) + 1e-12 at each radius.

    The direct form is a plain sum over points, so disjoint sets give
    equality at every finite radius; shared points are counted once in the
    union and twice in the sum.
    """
    rs = _validate_radii(radii)
    u = circ_density_direct(union_points(l1, l2), rs)
    p1 = circ_density_direct(l1, rs)
    p2 = circ_density_direct(l2, rs)
    rows = tuple(SubadditivityRow(r=float(r), union_value=u.values[i],
                                  sum_value=p1.values[i] + p2.values[i],
                                  ok=u.values[i] <= p1.values[i] + p2.values[i] + 1e-12)
                 for i, r in enumerate(rs))
    return SubadditivityReport(rows=rows)
