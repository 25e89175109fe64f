"""Zero counting and contour averages for the pure-Gaussian case.

A shift combination over a Gaussian generator extends to an entire function

    f(z) = sum_k c_k * amp * exp(-a*(z - k)**2),        a = pi**2/gamma,

whose zero set repeats vertically with period pi/a: if f(x) = 0 for real x
then f(x + i*pi*k/a) = 0 for every integer k.  Dividing out the order n of
f at the origin and normalizing,

    F(z) = C1 * z**(-n) * f(z) * exp((a/2) * z**2),  F(0) = 1,

is entire, and |F(z)| <= C |z|^-n exp((a/2)|z|^2) for z != 0 with the
certified C = C1 * amp * sum_k |c_k|, because termwise
Re(-a(z-k)^2 + (a/2)z^2) = -a(x-k)^2 + (a/2)|z|^2 <= (a/2)|z|^2.  The
classical identity for the zero counter n_F(t) = #{|z| <= t : F(z) = 0},

    integral_0^r n_F(t)/t dt = (1/2pi) integral_0^{2pi} log|F(r e^{i th})| dth,

ties the vertical-lattice zero count (density.pair_moduli at alpha = pi/a)
to a contour average bounded by (log(C) - n log(r))/r^2 + a/2 after dividing
by r^2.  All magnitude work happens in log space: exp((a/2) r^2) overflows
doubles near r = 27 for a = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import eval_hermite

from .density import circ_density_direct, pair_moduli
from .errors import ChainViolationError, OrderDetectionError, PhaseTrackingError, \
    QuadratureError
# eval_f is unused, but the benchmark self-test checks tracing restores it here.
from .sispace import PointSet, SISFunction, eval_f, find_zeros

# Order detection: smallest derivative order at 0 clearly above noise.
ORDER_DETECT_TOL = 1e-8
ORDER_NOISE_FLOOR = 1e-12
MAX_ORDER = 6
# A zero this close to the counting circle makes phase tracking unreliable.
CIRCLE_CLEARANCE = 1e-6
# Largest (points x terms) block _stable_terms builds at once: 64 KiB per complex
# array, under glibc's default 128 KiB mmap threshold, so blocks reuse heap pages.
MAX_TERM_BLOCK = 1 << 12


def _require_gaussian(f: SISFunction):
    if f.params.m != 0:
        raise ValueError(
            "entire-extension machinery requires a pure Gaussian generator (m = 0)")


def _stable_terms(f: SISFunction, z):
    """Split f(z) into exp(scale) * inner with real scale = max term log-magnitude.

    inner is an order-one complex number unless the terms cancel; its
    magnitude is the size of f relative to the local term scale.  The
    (points x terms) arrays are built in row blocks of at most
    MAX_TERM_BLOCK entries; each point reduces its own row, so the block
    size does not change any value.
    """
    zz = np.asarray(z, dtype=complex)
    ks = f.coeffs.support_indices()
    cs = np.asarray(f.coeffs.coeffs)
    keep = cs != 0.0
    ks, cs = ks[keep], cs[keep]
    a = f.params.gauss_rate
    log_amp = math.log(f.params.time_amplitude)
    log_cs = log_amp + np.log(np.abs(cs))
    sign_phase = np.where(cs < 0, math.pi, 0.0)
    flat = zz.reshape(-1)
    scale = np.empty(flat.shape)
    inner = np.empty(flat.shape, dtype=complex)
    rows = max(1, MAX_TERM_BLOCK // max(1, ks.size))
    for lo in range(0, flat.size, rows):
        w = flat[lo:lo + rows, None] - ks
        wr, wi = w.real, w.imag
        log_mag = log_cs - a * (wr * wr - wi * wi)
        phase = -2.0 * a * wr * wi + sign_phase
        block_scale = np.max(log_mag, axis=-1)
        scale[lo:lo + rows] = block_scale
        inner[lo:lo + rows] = np.sum(np.exp(log_mag - block_scale[:, None] + 1j * phase),
                                     axis=-1)
    return scale.reshape(zz.shape), inner.reshape(zz.shape)


def _log_abs(scale, inner):
    """log|f| from _stable_terms output; -inf where inner underflows to 0."""
    with np.errstate(divide="ignore"):
        return scale + np.log(np.abs(inner))


def log_abs_f_complex(f: SISFunction, z):
    """log|f(z)| for the entire extension, stable for large |Im z|.

    Returns -inf where the term sum cancels below the underflow floor.
    Accepts a scalar or an array of complex arguments.
    """
    _require_gaussian(f)
    out = _log_abs(*_stable_terms(f, z))
    if np.ndim(z) == 0:
        return float(out[()])
    return out


def _derivatives_at_zero(f: SISFunction, max_order: int) -> list:
    """f^(j)(0) for j = 0..max_order from termwise Gaussian derivatives.

    d^j/dx^j exp(-a x^2) = a^(j/2) * (-1)^j * H_j(sqrt(a) x) * exp(-a x^2)
    with H_j the physicists' Hermite polynomial, so each derivative is an
    exact finite sum over the coefficient support.
    """
    a = f.params.gauss_rate
    amp = f.params.time_amplitude
    ks = f.coeffs.support_indices().astype(float)
    cs = np.asarray(f.coeffs.coeffs)
    base = amp * np.exp(-a * ks * ks)
    out = []
    for j in range(max_order + 1):
        h = eval_hermite(j, -math.sqrt(a) * ks)
        out.append(float(np.sum(cs * a ** (j / 2.0) * (-1) ** j * h * base)))
    return out


@dataclass(frozen=True)
class JensenContext:
    """Normalized entire extension of a Gaussian-case f and its real zeros.

    log_c1 normalizes F(0) = 1 for F(z) = C1 z^-n f(z) exp((a/2) z^2); n is
    the order of f at the origin; real_zeros excludes the origin.
    """

    f: SISFunction
    gauss_rate: float
    order: int
    log_c1: float
    real_zeros: PointSet

    @property
    def lattice_step(self) -> float:
        """Vertical period pi/a of the zero set of the extension."""
        return math.pi / self.gauss_rate

    @property
    def log_c(self) -> float:
        """log C for the certified |F(z)| <= C |z|^-n exp((a/2)|z|^2) (module doc)."""
        scale = self.f.params.time_amplitude * float(np.sum(np.abs(self.f.coeffs.coeffs)))
        return self.log_c1 + math.log(scale)

    @cached_property
    def contour(self) -> "ContourSampler":
        """The sampler shared by the winding count and the contour average."""
        return ContourSampler(self.f)


class ContourSampler:
    """Stabilized terms of f on nested trapezoid grids of one circle |z| = r.

    Holds (scale, inner) at theta_j = 2 pi j/n, j < n, for the finest n
    reached at the most recent radius, plus the closing point theta = 2 pi
    once it is asked for.  A grid n/2^k is a strided view, and each doubling
    evaluates only the new odd-index points: linspace(0, 2 pi, 2n + 1)[::2]
    equals linspace(0, 2 pi, n + 1) bit for bit, so every grid holds the
    values a fresh evaluation at its points gives.  Another radius, or a
    grid not a power-of-two multiple or divisor of n, starts over.  The
    state is replaced in one assignment, so a failed evaluation leaves the
    previous grid intact.
    """

    def __init__(self, f: SISFunction):
        self.f = f
        self._state = (None, 0, None, None, None)  # r, n, scale, inner, closing point

    @property
    def n(self) -> int:
        """Points in the finest grid held (0 before the first call)."""
        return self._state[1]

    def _eval(self, r: float, theta):
        return _stable_terms(self.f, r * np.exp(1j * theta))

    def grid(self, r: float, n: int, closed: bool = False):
        """(scale, inner) at r e^{2 pi i j/n} for j = 0..n-1 (j = n too if closed)."""
        r_held, top, scale, inner, end = self._state
        lo, hi = sorted((n, top))
        if r != r_held or hi % lo or (hi // lo) & (hi // lo - 1):
            top, end = n, None
            scale, inner = self._eval(r, np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
        while top < n:
            new_scale, new_inner = self._eval(
                r, np.linspace(0.0, 2.0 * math.pi, 2 * top + 1)[1::2])
            scale = np.stack([scale, new_scale], axis=-1).ravel()
            inner = np.stack([inner, new_inner], axis=-1).ravel()
            top *= 2
        if closed and end is None:
            end = self._eval(r, np.array([2.0 * math.pi]))
        self._state = (r, top, scale, inner, end)
        step = top // n
        scale, inner = scale[::step], inner[::step]
        if closed:
            return np.concatenate([scale, end[0]]), np.concatenate([inner, end[1]])
        # Contiguous copies: callers may write to them, and their ufuncs run
        # the loops they run on a freshly evaluated array.
        return scale.copy(), inner.copy()


def build_context(f: SISFunction) -> JensenContext:
    """Detect the order at the origin, normalize, and collect real zeros.

    The order n is the smallest derivative order at 0 with magnitude above
    ORDER_DETECT_TOL (orders up to MAX_ORDER).  A lower-order derivative
    above ORDER_NOISE_FLOOR makes n ambiguous and raises rather than
    misnormalize.  Real zeros come from a sign-change scan of the support
    window.
    """
    _require_gaussian(f)
    if f.coeffs.is_zero:
        raise ValueError("f must be nonzero")
    derivs = _derivatives_at_zero(f, MAX_ORDER)
    order = None
    for j, d in enumerate(derivs):
        if abs(d) > ORDER_DETECT_TOL:
            order = j
            break
    if order is None:
        raise OrderDetectionError(
            f"derivative magnitudes at orders 0..{MAX_ORDER} all below "
            f"{ORDER_DETECT_TOL} (floor {ORDER_NOISE_FLOOR}): {derivs}")
    ambiguous = [j for j in range(order) if abs(derivs[j]) > ORDER_NOISE_FLOOR]
    if ambiguous:
        raise OrderDetectionError(
            f"derivatives at orders {ambiguous} lie between the noise floor "
            f"{ORDER_NOISE_FLOOR} and {ORDER_DETECT_TOL}, so the order at the "
            f"origin is ambiguous: {derivs[:order + 1]}")
    log_c1 = math.lgamma(order + 1) - math.log(abs(derivs[order]))

    zeros = find_zeros(f, f.support_window())
    pts = tuple(p for p in zeros.points if abs(p) > 1e-8)
    real_zeros = PointSet(points=pts, window=zeros.window,
                          touch_points=zeros.touch_points)
    return JensenContext(f=f, gauss_rate=f.params.gauss_rate, order=order,
                         log_c1=log_c1, real_zeros=real_zeros)


@dataclass(frozen=True)
class DiskZeroCount:
    """Zero count of F in a closed disk: lattice enumeration plus winding excess."""

    total: int
    lattice: int
    extra: int

    def __int__(self) -> int:
        return self.total


def _winding_number(ctx: JensenContext, t: float) -> int:
    """Winding number of F around |z| = t by adaptive phase tracking.

    The phase of F along the contour is arg(f) - n*theta + (a/2) t^2 sin(2 theta)
    up to a constant; increments are accumulated from stabilized values of f
    and the grid, from 512 up to 2^17 points, is doubled until every
    increment is below pi/2 and two consecutive refinements agree on the
    integer winding.
    """
    a = ctx.gauss_rate
    n = ctx.order
    n_max = 1 << 17
    nt = 512
    prev = None
    while nt <= n_max:
        theta = np.linspace(0.0, 2.0 * math.pi, nt + 1)
        _, inner = ctx.contour.grid(t, nt, closed=True)
        if np.any(np.abs(inner) == 0.0):
            raise PhaseTrackingError(f"contour |z|={t} passes through a zero")
        dphi = np.angle(inner[1:] * np.conj(inner[:-1]))
        incr = dphi - n * np.diff(theta) + 0.5 * a * t * t * np.diff(np.sin(2.0 * theta))
        if np.max(np.abs(dphi)) < 0.5 * math.pi and np.max(np.abs(incr)) < 0.5 * math.pi:
            w = float(np.sum(incr) / (2.0 * math.pi))
            k = int(round(w))
            if abs(w - k) < 0.01:
                if prev is not None and prev == k:
                    return k
                prev = k
            else:
                prev = None
        nt *= 2
    raise PhaseTrackingError(
        f"phase tracking did not stabilize at |z|={t} within {n_max} samples "
        "(zero near the contour?)")


def count_zeros_disk(ctx: JensenContext, t: float) -> DiskZeroCount:
    """Count zeros of F with |z| <= t.

    The vertical-lattice extension of the real zeros is enumerated exactly;
    the winding number of F over the circle counts all zeros, and the excess
    over the lattice count is reported separately (the zero set contains the
    lattice extension but equality is not promised).
    """
    t = float(t)
    if not t > 0:
        raise ValueError("t must be positive")
    mods = pair_moduli(ctx.real_zeros, ctx.lattice_step, t + 2.0 * CIRCLE_CLEARANCE)
    if mods.size and np.min(np.abs(mods - t)) < CIRCLE_CLEARANCE:
        raise ValueError(
            f"a lattice zero lies within {CIRCLE_CLEARANCE} of |z|={t}; perturb t")
    lattice = int(np.searchsorted(mods, t, side="right"))
    total = _winding_number(ctx, t)
    extra = total - lattice
    if extra < 0:
        raise PhaseTrackingError(
            f"winding count {total} below lattice count {lattice} at |z|={t}")
    return DiskZeroCount(total=total, lattice=lattice, extra=extra)


def jensen_lhs(ctx: JensenContext, r: float) -> float:
    """(1/r^2) integral_0^r n_F(t)/t dt from the enumerated lattice zeros.

    n_F(t)/t is piecewise constant with breakpoints at the zero moduli, so
    the integral telescopes exactly to sum over moduli m <= r of log(r/m):
    (a/2) times circ_density_lattice(real_zeros, pi/a, [r]).
    """
    r = float(r)
    if not r > 0:
        raise ValueError("r must be positive")
    mods = pair_moduli(ctx.real_zeros, ctx.lattice_step, r)
    if mods.size == 0:
        return 0.0
    return float(np.sum(np.log(r / mods))) / (r * r)


def _contour_log_abs_F(ctx: JensenContext, r: float, nt: int) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * math.pi, nt, endpoint=False)
    log_f = _log_abs(*ctx.contour.grid(r, nt))
    return (ctx.log_c1 - ctx.order * math.log(r) + log_f
            + 0.5 * ctx.gauss_rate * r * r * np.cos(2.0 * theta))


def jensen_rhs(ctx: JensenContext, r: float) -> float:
    """(1/(2 pi r^2)) contour average of log|F(r e^{i theta})| by trapezoid.

    The grid, from 64 up to 2^18 points, is doubled until successive values
    differ by less than 1e-7 (with a zero at clearance d the refinement
    error decays like exp(-n d / r), so the successive difference
    understates the true error and needs headroom).  Non-convergence
    signals a zero on or near the contour and the caller is expected to
    perturb r.
    """
    r = float(r)
    prev = None
    nt = 64
    while nt <= (1 << 18):
        vals = _contour_log_abs_F(ctx, r, nt)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError(f"contour |z|={r} hits a zero of F")
        cur = float(np.mean(vals)) / (r * r)
        if prev is not None and abs(cur - prev) < 1e-7:
            return cur
        prev = cur
        nt *= 2
    raise QuadratureError(
        f"contour average at |z|={r} did not converge (zero near the contour?)")


def fit_growth_constant(ctx: JensenContext, radius: float, grid_step: float = 0.1) -> float:
    """Empirical log(C) in |F(z)| <= C exp((a/2)|z|^2) on the disk |z| <= radius.

    Maximizes log|F(z)| - (a/2)|z|^2 over a grid of the disk.  The maximum
    stabilizes as the grid radius grows; it is a diagnostic only, and
    verify_base_case checks against the certified JensenContext.log_c.
    """
    xs = np.arange(-radius, radius + grid_step / 2, grid_step)
    zg = (xs[:, None] + 1j * xs[None, :]).ravel()
    zg = zg[(np.abs(zg) <= radius) & (np.abs(zg) > 0.05)]
    log_f = log_abs_f_complex(ctx.f, zg)
    with np.errstate(invalid="ignore"):
        vals = (ctx.log_c1 - ctx.order * np.log(np.abs(zg)) + log_f
                + 0.5 * ctx.gauss_rate * (zg.real**2 - zg.imag**2)
                - 0.5 * ctx.gauss_rate * np.abs(zg) ** 2)
    vals = vals[np.isfinite(vals)]
    return float(np.max(vals))


def safe_radius(ctx: JensenContext, r: float) -> float:
    """Deterministically nudge r upward to the radius in [r, r+0.25] farthest
    from every lattice-zero modulus (never closer than CIRCLE_CLEARANCE)."""
    span = 0.25
    mods = pair_moduli(ctx.real_zeros, ctx.lattice_step, r + span + 1.0)
    if mods.size == 0:
        return float(r)
    cands = r + np.arange(0, int(round(span / 1e-4)) + 1) * 1e-4
    # mods is sorted, so each candidate's nearest modulus is a neighbour of
    # its insertion point.
    i = np.searchsorted(mods, cands)
    below = np.abs(mods[np.maximum(i - 1, 0)] - cands)
    above = np.abs(mods[np.minimum(i, mods.size - 1)] - cands)
    dist = np.minimum(below, above)
    best = int(np.argmax(dist))
    if dist[best] < CIRCLE_CLEARANCE:
        raise PhaseTrackingError(f"no clear counting radius near {r}")
    return float(cands[best])


@dataclass(frozen=True)
class BaseCaseRow:
    r: float
    lhs: float
    rhs: float
    circ_scaled: float
    bound: float
    extra_zeros: int
    samples: int  # finest contour grid evaluated at r


@dataclass(frozen=True)
class BaseCaseReport:
    rows: tuple
    log_c: float
    circ_values: tuple  # full-zero-set density profile values per radius

    def to_json_dict(self) -> dict:
        return {"log_c": self.log_c,
                "circ_values": list(self.circ_values),
                "rows": [{"r": w.r, "lhs": w.lhs, "rhs": w.rhs,
                          "circ_scaled": w.circ_scaled, "bound": w.bound,
                          "extra_zeros": w.extra_zeros, "samples": w.samples}
                         for w in self.rows]}


def verify_base_case(ctx: JensenContext, radii) -> BaseCaseReport:
    """Run the zero-count / contour-average / growth-bound chain per radius.

    Each nominal radius is nudged off the zero moduli, then the chain
        (a/2) * chord-density(real zeros) <= lhs ~ rhs <= (log C - n log r)/r^2 + a/2
    is checked with slack 20/r on the left link, 2e-6 between lhs and rhs
    (when the winding count confirms all zeros are enumerated), 1e-6 on the
    right link; the chord density of the full zero set must stay below
    1 + 40/r.  C is the certified constant JensenContext.log_c, fixed before
    any sample is taken, so the right link can fail.  Violations raise with
    diagnostic values.  Each row records the finest contour grid evaluated
    at its radius (samples).
    """
    rs = [float(r) for r in radii]
    if not rs or any(r <= 0 for r in rs):
        raise ValueError("radii must be positive")
    a = ctx.gauss_rate
    log_c = ctx.log_c
    lam = ctx.real_zeros
    full_pts = ctx.real_zeros.points
    if ctx.order >= 1:
        full_pts = tuple(sorted(full_pts + (0.0,)))
    full = PointSet(points=full_pts, window=ctx.real_zeros.window)

    rows = []
    circ_values = []
    for r0 in rs:
        r = safe_radius(ctx, r0)
        count = count_zeros_disk(ctx, r)
        lhs = jensen_lhs(ctx, r)
        rhs = jensen_rhs(ctx, r)
        circ = circ_density_direct(lam, [r]).values[0] if len(lam) else 0.0
        circ_full = circ_density_direct(full, [r]).values[0] if len(full) else 0.0
        bound = (log_c - ctx.order * math.log(r)) / (r * r) + 0.5 * a
        if count.extra == 0 and abs(lhs - rhs) > 2e-6:
            raise ChainViolationError(
                f"zero-sum {lhs} and contour average {rhs} disagree at r={r} "
                f"with all zeros enumerated")
        if rhs > bound + 1e-6 or lhs > bound + 1e-6:
            raise ChainViolationError(
                f"growth bound violated at r={r}: lhs={lhs} rhs={rhs} bound={bound}")
        if 0.5 * a * circ > lhs + 20.0 / r:
            raise ChainViolationError(
                f"scaled chord density {0.5 * a * circ} exceeds zero sum {lhs} "
                f"+ 20/r at r={r}")
        if circ_full > 1.0 + 40.0 / r:
            raise ChainViolationError(
                f"zero-set chord density {circ_full} exceeds 1 + 40/r at r={r}")
        rows.append(BaseCaseRow(r=r, lhs=lhs, rhs=rhs, circ_scaled=0.5 * a * circ,
                                bound=bound, extra_zeros=count.extra,
                                samples=ctx.contour.n))
        circ_values.append(circ_full)
    return BaseCaseReport(rows=tuple(rows), log_c=log_c,
                          circ_values=tuple(circ_values))
