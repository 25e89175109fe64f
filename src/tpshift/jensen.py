"""Zero counting and contour averages for the pure-Gaussian case.

A shift combination over a Gaussian generator extends to an entire function

    f(z) = sum_k c_k * amp * exp(-a*(z - k)**2),        a = pi**2/gamma,

or, with p_k = c_k * exp(-a*k**2) and w = exp(2*a*z),

    f(z) = amp * exp(-a*z**2) * P(w),        P(w) = sum_k p_k * w**k.

So f(z + i*pi*k/a) = exp(-2*pi*i*k*z + pi**2*k**2/a) * f(z): the zero set,
with orders, repeats vertically with period pi/a.  Expanding
P(exp(2az)) at z = 0, f vanishes at the origin to the order n of the first
nonzero moment m_j = sum_k p_k k**j, and f^(n)(0) = amp * (2a)**n * m_n.
Dividing out that order and normalizing,

    F(z) = C1 * z**(-n) * f(z) * exp((a/2) * z**2),  F(0) = 1,

is entire, and |F(z)| <= C |z|^-n exp((a/2)|z|^2) for z != 0 with the
certified C = C1 * amp * sum_k |c_k|, because termwise
Re(-a(z-k)^2 + (a/2)z^2) = -a(x-k)^2 + (a/2)|z|^2 <= (a/2)|z|^2.  The
classical identity for the zero counter n_F(t) = #{|z| <= t : F(z) = 0},

    integral_0^r n_F(t)/t dt = (1/2pi) integral_0^{2pi} log|F(r e^{i th})| dth,

ties the count of F's known zeros, the real zeros' vertical lattice
(density.pair_moduli at alpha = pi/a) and, for n >= 1, the origin's images
i*pi*k/a, k != 0, each of order n, to a contour average bounded by
(log(C) - n log(r))/r^2 + a/2 after dividing by r^2.  All magnitude work
happens in log space: exp((a/2) r^2) overflows doubles near r = 27 for
a = 1.

Every zero of F lies over a root w = exp(2az) of P, so the known zeros are
all of them when f's real zeros and the origin's order account for every
root of P (JensenContext.zero_set_complete).  Then the disk counts are the
lattice counts, and Rubel & Taylor's bound on the Fourier coefficients of
log|F| fixes each radius's trapezoid grid in advance with a proven error
(_trapezoid_errors).  Otherwise a winding number counts the zeros and the
contour average doubles its grid until two values agree; both read one set
of nested grids on the half circle (_uncertified_circle).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import MAX_PAIR_MODULI, circ_density_direct, pair_moduli
from .errors import ChainViolationError, OrderDetectionError, PhaseTrackingError, \
    QuadratureError
# eval_f is unused, but the benchmark self-test checks tracing restores it here.
from .sispace import PointSet, SISFunction, _radius, eval_f, find_zeros

# Order detection: first moment at 0 clearly above noise, relative to its terms.
ORDER_DETECT_TOL = 1e-8
ORDER_NOISE_FLOOR = 1e-12
MAX_ORDER = 6
# A zero this close to the counting circle makes phase tracking unreliable.
CIRCLE_CLEARANCE = 1e-6
# safe_radius searches [r, r + SAFE_SPAN] for a radius clear of the moduli.
SAFE_SPAN = 0.25
# Contour-average grids run from MIN_GRID to MAX_GRID points; a proven grid
# keeps the error of jensen_rhs below RHS_TOL.
MIN_GRID = 64
MAX_GRID = 1 << 18
RHS_TOL = 1e-9


def _require_gaussian(f: SISFunction):
    if f.params.m != 0:
        raise ValueError(
            "entire-extension machinery requires a pure Gaussian generator (m = 0)")


def _largest_terms(ks, log_cs, a: float):
    """(hull, breaks): the term of largest magnitude at x is ks[hull[searchsorted(breaks, x)]].

    The term of c_k has log-magnitude log_cs_k - a(x - k)^2 + a y^2, so
    the largest is the top of the upper envelope of those parabolas in x.
    Consecutive terms k < l cross at x = (k + l)/2 + (log_cs_k - log_cs_l)/(2a(l - k)).
    A term whose crossing with its left neighbour is not before the one
    with its right neighbour is nowhere strictly largest; dropping all such
    terms at once leaves the envelope as it was, and on what remains the
    crossings increase.
    """
    keep = np.arange(ks.size)
    while True:
        k, lc = ks[keep], log_cs[keep]
        breaks = 0.5 * (k[:-1] + k[1:]) + (lc[:-1] - lc[1:]) / (2.0 * a * (k[1:] - k[:-1]))
        drop = np.flatnonzero(breaks[:-1] >= breaks[1:]) + 1
        if drop.size == 0:
            return keep, breaks
        keep = np.delete(keep, drop)


def _term_blocks(ks, log_cs, a: float):
    """(first, last) positions in ks of the blocks _stable_terms sums by Horner's rule.

    About its centre k_b a block's terms carry |c_k| exp(-a(k - k_b)^2),
    whose logs spread over at most the spread of log|c_k| plus a h^2, h
    the half-span.  Blocks are halved until that bound is at most 600, so
    every Horner coefficient, taken relative to an end term, lies within
    exp(+-600) and the partial sums, at most a block's term count times
    exp(600), stay inside the range of doubles (exp(+-709)).  The blocks
    depend on f alone.
    """
    first = np.zeros(1, dtype=int)
    while True:
        last = np.append(first[1:], ks.size) - 1
        half = 0.5 * (ks[last] - ks[first])
        spread = (np.maximum.reduceat(log_cs, first) - np.minimum.reduceat(log_cs, first)
                  + a * half * half)
        split = (spread > 600.0) & (last > first)
        if not split.any():
            return first, last
        first = np.union1d(first, (first[split] + last[split] + 1) // 2)


def _stable_terms(f: SISFunction, z):
    """Split f(z) into exp(scale) * inner with real scale = max term log-magnitude.

    inner is an order-one complex number unless the terms cancel; its
    magnitude is the size of f relative to the local term scale.  At
    z = x + iy the term of c_k has log-magnitude log|amp c_k| - a((x-k)^2 - y^2)
    and phase -2a(x-k)y; the largest term is read off the envelope of
    _largest_terms.  Over a block of _term_blocks with ends k_lo, k_hi and
    centre k_b, f's part is the module doc's P in v = exp(2a(z - k_b)):

        sum_k c_k amp exp(-a(z - k)^2)
            = term_lo(z) * sum_j u_j v^j = term_hi(z) * sum_j d_j v^-j,

    j = k - k_lo resp. k_hi - k, with u_j = (c_k/c_lo) exp(-a j(j - 2h)) and
    d_j likewise from the high end, h the half-span.  A point left of k_b
    runs Horner's rule in v (|v| < 1) from the high end, one right of it in
    1/v, so every power has modulus at most 1 and no partial sum
    overflows; there are no (terms x points) arrays.  The end term's
    log-magnitude relative to the largest term k* is formed as
    (log_cs_e - log_cs_*) + a(k_e - k*)((x - k*) + (x - k_e)), free of the
    cancelling a y^2.  Its phase is -(x - k_e) times the very angle 2ay of v,
    so the rounding of that angle cancels to first order at the largest
    term.  Each point's value depends on f and that point alone: points are
    sorted by x only to make the two sides of k_b contiguous.  A zero f
    gives scale -inf and inner 0.
    """
    zz = np.asarray(z, dtype=complex)
    if f.coeffs.is_zero:
        return np.full(zz.shape, -np.inf), np.zeros(zz.shape, dtype=complex)
    cs = np.asarray(f.coeffs.coeffs)
    at = np.flatnonzero(cs)
    cs, ks = cs[at], (f.coeffs.offset + at).astype(float)
    signs = np.sign(cs)
    log_cs = math.log(f.params.time_amplitude) + np.log(np.abs(cs))
    a = f.params.gauss_rate
    hull, breaks = _largest_terms(ks, log_cs, a)

    flat = zz.reshape(-1)
    order = np.argsort(flat.real)
    x, y = flat.real[order], flat.imag[order]
    top = hull[np.searchsorted(breaks, x)]
    k_top, log_top = ks[top], log_cs[top]
    dx_top = x - k_top
    scale = log_top - a * (dx_top * dx_top - y * y)
    angle = 2.0 * a * y
    rho = np.exp(1j * angle)
    inner = np.zeros(x.shape, dtype=complex)
    for lo, hi in zip(*_term_blocks(ks, log_cs, a)):
        centre, half = 0.5 * (ks[lo] + ks[hi]), 0.5 * (ks[hi] - ks[lo])
        span = int(ks[hi] - ks[lo])
        split = int(np.searchsorted(x, centre))
        up, down = np.zeros((2, span + 1))
        for coeffs, end in ((up, lo), (down, hi)):
            j = np.abs(ks[lo:hi + 1] - ks[end]).astype(int)
            coeffs[j] = signs[lo:hi + 1] * np.exp(
                log_cs[lo:hi + 1] - log_cs[end] - a * j * (j - 2.0 * half))
        v = np.exp(-2.0 * a * np.abs(x - centre)) * rho
        np.negative(v.imag[split:], out=v.imag[split:])
        # Horner's steps alternate between two buffers: numpy multiplies a
        # one-entry complex array in place without FMA, so an in-place
        # product would give a single point other bits than a long array.
        bufs = [(b, b[:split], b[split:]) for b in np.empty((2,) + x.shape, dtype=complex)]
        bufs[0][1][...], bufs[0][2][...] = up[span], down[span]
        for u_j, d_j in zip(up[:span][::-1].tolist(), down[:span][::-1].tolist()):
            (acc, _, _), (step, left, right) = bufs
            np.multiply(acc, v, step)
            left += u_j
            right += d_j
            bufs.reverse()
        (acc, _, _), (spare, _, _) = bufs
        # The end term of each side relative to the largest term.
        k_end = np.full(x.shape, ks[hi])
        k_end[:split] = ks[lo]
        log_end = np.full(x.shape, log_cs[hi])
        log_end[:split] = log_cs[lo]
        dx_end = x - k_end
        end = np.empty(x.shape, dtype=complex)
        end.real = (log_end - log_top) + a * (k_end - k_top) * (dx_top + dx_end)
        end.imag = -(dx_end * angle)
        inner += np.multiply(acc, np.exp(end, out=end), spare)
    scale_out = np.empty(flat.shape)
    scale_out[order] = scale
    inner_out = np.empty(flat.shape, dtype=complex)
    inner_out[order] = inner
    return scale_out.reshape(zz.shape), inner_out.reshape(zz.shape)


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


def _moments_at_zero(f: SISFunction) -> tuple:
    """(s, m, size) with m_j = sum_k p_k k^j and size_j = sum_k |p_k k^j|.

    p_k = c_k exp(-a k^2 - s), j = 0..MAX_ORDER, and s is the largest
    -a k^2 over the nonzero c_k, so the p_k stay in range for supports far
    from the origin.  By the module doc's P(w), f^(j)(0) = 0 for j below the
    first nonzero moment m_n, and f^(n)(0) = amp (2a)^n exp(s) m_n.
    """
    a = f.params.gauss_rate
    ks = f.coeffs.support_indices().astype(float)
    cs = np.asarray(f.coeffs.coeffs)
    exps = -a * ks * ks
    s = float(np.max(exps[cs != 0.0]))
    terms = cs * np.exp(exps - s) * ks ** np.arange(MAX_ORDER + 1)[:, None]
    # Correctly rounded sums: the order test reads how far m_j cancels.
    moments = np.array([math.fsum(row) for row in terms])
    return s, moments, np.abs(terms).sum(axis=1)


@dataclass(frozen=True)
class JensenContext:
    """Normalized entire extension of a Gaussian-case f and its real zeros.

    log_c1 normalizes F(0) = 1 for F(z) = C1 z^-n f(z) exp((a/2) z^2); n is
    the order of f at the origin; real_zeros excludes the origin.
    """

    f: SISFunction
    order: int
    log_c1: float
    real_zeros: PointSet

    @property
    def gauss_rate(self) -> float:
        return self.f.params.gauss_rate

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
    def zero_set_complete(self) -> bool:
        """Whether F's known zeros (_known_moduli) are all of its zeros.

        With k_first and k_last the first and last nonzero coefficients,
        Q(w) = w^-k_first P(w) has degree k_last - k_first, and Q(0) != 0.
        Each zero of F lies over a root of Q (module doc).  Each real zero
        found is a sign change, so a distinct positive root, and the origin
        is the root w = 1 of multiplicity n.  If they add up to the degree,
        Q has no other roots, and no found root is a multiple one.
        """
        at = np.flatnonzero(self.f.coeffs.coeffs)
        return (not self.real_zeros.touch_points
                and len(self.real_zeros) + self.order == int(at[-1] - at[0]))


def build_context(f: SISFunction) -> JensenContext:
    """Detect the order at the origin, normalize, and collect real zeros.

    The order n is the first j <= MAX_ORDER whose moment m_j (see
    _moments_at_zero) exceeds ORDER_DETECT_TOL times its term size.  A lower
    moment above ORDER_NOISE_FLOOR times its term size makes n ambiguous and
    raises rather than misnormalize.  log C1 is formed in log space.  Real
    zeros come from a sign-change scan of the support window.
    """
    _require_gaussian(f)
    if f.coeffs.is_zero:
        raise ValueError("f must be nonzero")
    s, moments, sizes = _moments_at_zero(f)
    above = np.flatnonzero(np.abs(moments) > ORDER_DETECT_TOL * sizes)
    if above.size == 0:
        raise OrderDetectionError(
            f"moments of orders 0..{MAX_ORDER} all below {ORDER_DETECT_TOL} times "
            f"their term sizes: {moments.tolist()} vs {sizes.tolist()}")
    order = int(above[0])
    ambiguous = np.flatnonzero(np.abs(moments[:order]) > ORDER_NOISE_FLOOR * sizes[:order])
    if ambiguous.size:
        ratios = np.abs(moments[ambiguous]) / sizes[ambiguous]
        raise OrderDetectionError(
            f"moments at orders {ambiguous.tolist()} lie between {ORDER_NOISE_FLOOR} "
            f"and {ORDER_DETECT_TOL} times their term sizes, so the order at the "
            f"origin is ambiguous: {ratios.tolist()}")
    log_c1 = math.lgamma(order + 1) - (
        math.log(f.params.time_amplitude) + s + order * math.log(2.0 * f.params.gauss_rate)
        + math.log(abs(moments[order])))

    zeros = find_zeros(f, f.support_window())
    pts = tuple(p for p in zeros.points if abs(p) > 1e-8)
    real_zeros = PointSet(points=pts, window=zeros.window,
                          touch_points=zeros.touch_points)
    return JensenContext(f=f, order=order, log_c1=log_c1, real_zeros=real_zeros)


@dataclass(frozen=True)
class DiskZeroCount:
    """Zero count of F in a closed disk: lattice enumeration plus winding excess."""

    total: int
    lattice: int

    @property
    def extra(self) -> int:
        return self.total - self.lattice

    def __int__(self) -> int:
        return self.total


def _known_moduli(ctx: JensenContext, r_max: float) -> np.ndarray:
    """Sorted moduli up to r_max of F's known zeros, with multiplicity.

    They are the real zeros' vertical lattice and, for order n >= 1, the
    origin's images i*pi*k/a, k != 0, each a zero of order n (module doc).
    Raises ValueError before allocating more than MAX_PAIR_MODULI moduli.
    """
    step = ctx.lattice_step
    mods = pair_moduli(ctx.real_zeros, step, r_max)
    if ctx.order == 0:
        return mods
    # Finite: pair_moduli has checked step and r_max against the radius domain.
    kmax = math.floor(r_max / step)
    if mods.size + 2 * ctx.order * kmax > MAX_PAIR_MODULI:
        raise ValueError(f"known zeros at step {step} up to radius {r_max} have "
                         f"more than {MAX_PAIR_MODULI} moduli")
    images = np.repeat(step * np.arange(1, kmax + 1), 2 * ctx.order)
    return np.sort(np.concatenate([mods, images]))


def count_zeros_disk(ctx: JensenContext, t: float) -> DiskZeroCount:
    """Count zeros of F with |z| <= t.

    F's known zeros (_known_moduli) are enumerated exactly.  When they are
    all of F's zeros (JensenContext.zero_set_complete) that is the count;
    otherwise the winding number of F over the circle counts all zeros, and
    the excess over the known count is reported separately.
    """
    t = _radius(t, "t")
    lattice = _lattice_count(_known_moduli(ctx, t + 2.0 * CIRCLE_CLEARANCE), t)
    total = (lattice if ctx.zero_set_complete
             else _uncertified_circle(ctx, t, lattice, average=False)[0])
    return DiskZeroCount(total=total, lattice=lattice)


def _lattice_count(mods: np.ndarray, t: float) -> int:
    """Known zeros in |z| <= t from the sorted moduli up to at least t + 2*CIRCLE_CLEARANCE.

    Moduli beyond that change nothing: they lie outside the disk and too far
    from the circle to be too close.
    """
    if mods.size and np.min(np.abs(mods - t)) < CIRCLE_CLEARANCE:
        raise ValueError(
            f"a lattice zero lies within {CIRCLE_CLEARANCE} of |z|={t}; perturb t")
    return int(np.searchsorted(mods, t, side="right"))


def jensen_lhs(ctx: JensenContext, r: float) -> float:
    """(1/r^2) integral_0^r n_F(t)/t dt from F's known zeros (_known_moduli).

    n_F(t)/t is piecewise constant with breakpoints at the zero moduli, so
    the integral telescopes exactly to sum over moduli m <= r of log(r/m).
    At order 0 that is (a/2) times circ_density_lattice(real_zeros, pi/a, [r]).
    """
    r = _radius(r, "r")
    return _jensen_lhs(_known_moduli(ctx, r), r)


def _jensen_lhs(mods: np.ndarray, r: float) -> float:
    """jensen_lhs from the sorted known-zero moduli up to at least r."""
    mods = mods[:np.searchsorted(mods, r, side="right")]
    if mods.size == 0:
        return 0.0
    return float(np.sum(np.log(r / mods))) / (r * r)


def _trapezoid_errors(ctx: JensenContext, mods: np.ndarray, r: float):
    """(n, bound) for n = MIN_GRID, 2 MIN_GRID, .. MAX_GRID, the bound on the
    error of the n-point trapezoid mean of log|F(r e^{i theta})|.

    It holds when the sorted moduli mods, up to at least 3r, are all of F's
    zeros (JensenContext.zero_set_complete).  F(0) = 1 and F has order 2, so
    for k >= 3 the k-th Fourier coefficient of log|F| on the circle is at
    most (1/2k) sum_j rho_j^k, rho_j = min(r/|z_j|, |z_j|/r) (Rubel & Taylor,
    Bull. SMF 96, 1968).  The rule's error is the sum of the coefficients
    of index +-mn, m >= 1, so for n >= 3 it is at most
    (1/n) sum_j rho_j^n/(1 - rho_j^n).  The zeros up to 3r are summed.
    Beyond, each column x + i k pi/a of the len(real_zeros) + n columns
    (the origin's counted n times) has its zeros at modulus at least
    max(3r, |k| pi/a); with q = 3^-n and K = floor(3r a/pi) a column adds at
    most q (2K + 3 + 2(K + 1)/(n - 1))/(1 - q).  The rho_j are formed once
    per radius; each n takes its powers.
    """
    rho = mods[:np.searchsorted(mods, 3.0 * r, side="right")] / r
    rho = np.minimum(rho, 1.0 / rho)
    k = math.floor(3.0 * r / ctx.lattice_step)
    columns = len(ctx.real_zeros) + ctx.order
    n = MIN_GRID
    while n <= MAX_GRID:
        with np.errstate(divide="ignore"):
            power = rho ** n
            inner = float(np.sum(power / (1.0 - power)))
        q = 3.0 ** -n
        tail = columns * q * (2 * k + 3 + 2 * (k + 1) / (n - 1)) / (1.0 - q)
        yield n, (inner + tail) / n
        n *= 2


def _proven_grid(ctx: JensenContext, mods: np.ndarray, r: float) -> int:
    """The smallest power-of-two grid from MIN_GRID whose _trapezoid_errors bound
    is at most RHS_TOL r^2, so the contour average over r^2 errs by at most RHS_TOL."""
    for n, error in _trapezoid_errors(ctx, mods, r):
        if error <= RHS_TOL * r * r:
            return n
    raise QuadratureError(
        f"contour average at |z|={r} needs more than {MAX_GRID} samples for a "
        f"proven error below {RHS_TOL} (zero near the contour?)")


def _trapezoid(ctx: JensenContext, r: float, theta: np.ndarray, log_f: np.ndarray) -> float:
    """jensen_rhs at r by the n-point trapezoid rule from log|f| at r e^{i theta}.

    The c_k are real, so F(conj z) = conj F(z) and log|F| is even in theta:
    the rule reads theta = linspace(0, pi, n/2 + 1), the points 2 pi j/n for
    j = 0..n/2, with weights 1, 2, ..., 2, 1.  The values of log|F| sum
    terms up to |log C1| + n|log r| + max|log|f|| + a r^2/2, which round by
    about eps times that; where this exceeds RHS_TOL r^2, as for supports
    thousands of units from the origin at a = 1, the average is refused.
    """
    vals = (ctx.log_c1 - ctx.order * math.log(r) + log_f
            + 0.5 * ctx.gauss_rate * r * r * np.cos(2.0 * theta))
    if not np.all(np.isfinite(vals)):
        raise QuadratureError(f"contour |z|={r} hits a zero of F")
    size = (abs(ctx.log_c1) + ctx.order * abs(math.log(r)) + float(np.max(np.abs(log_f)))
            + 0.5 * ctx.gauss_rate * r * r)
    if sys.float_info.epsilon * size > RHS_TOL * r * r:
        raise QuadratureError(
            f"contour average at |z|={r} sums log-magnitudes up to {size:.3g}, "
            f"whose rounding exceeds {RHS_TOL} r^2")
    weights = np.full(theta.size, 2.0)
    weights[[0, -1]] = 1.0
    return float(np.sum(weights * vals)) / (2 * (theta.size - 1)) / (r * r)


def _contour_averages(ctx: JensenContext, grids) -> list:
    """jensen_rhs at each (r, n) of grids by the n-point _trapezoid rule.

    All points go to _stable_terms together, at most MAX_GRID per call; a
    point's bits do not depend on the batch, so each value is the one a call
    for its radius alone gives.
    """
    thetas = [np.linspace(0.0, math.pi, n // 2 + 1) for _, n in grids]
    z = np.concatenate([r * np.exp(1j * theta) for (r, _), theta in zip(grids, thetas)])
    parts = [_stable_terms(ctx.f, z[i:i + MAX_GRID]) for i in range(0, z.size, MAX_GRID)]
    log_f = _log_abs(*(np.concatenate(p) for p in zip(*parts)))
    log_fs = np.split(log_f, np.cumsum([theta.size for theta in thetas])[:-1])
    return [_trapezoid(ctx, r, theta, log_f_r)
            for (r, _), theta, log_f_r in zip(grids, thetas, log_fs)]


def _half_winding(ctx: JensenContext, r: float, theta: np.ndarray, inner: np.ndarray):
    """F's winding number around |z| = r from one half-circle grid, or None.

    inner is _stable_terms's at r e^{i theta}, theta = linspace(0, pi, n/2 + 1).
    The phase of F along the contour is arg(f) - n theta + (a/2) r^2 sin(2 theta)
    up to a constant, and F(conj z) = conj F(z), so it gains as much over
    [pi, 2 pi] as over [0, pi]: the winding number is the phase gained over
    the half circle divided by pi.  None unless every step of arg(f) and of
    the phase is below pi/2 and that quotient is within 0.01 of an integer.
    """
    if np.any(np.abs(inner) == 0.0):
        raise PhaseTrackingError(f"contour |z|={r} passes through a zero")
    dphi = np.angle(inner[1:] * np.conj(inner[:-1]))
    incr = (dphi - ctx.order * np.diff(theta)
            + 0.5 * ctx.gauss_rate * r * r * np.diff(np.sin(2.0 * theta)))
    if np.max(np.abs(dphi)) >= 0.5 * math.pi or np.max(np.abs(incr)) >= 0.5 * math.pi:
        return None
    w = float(np.sum(incr)) / math.pi
    k = round(w)
    return k if abs(w - k) < 0.01 else None


def _uncertified_circle(ctx: JensenContext, r: float, lattice, average: bool) -> tuple:
    """(winding, rhs, samples) at |z| = r where the zero set is not certified complete.

    The count runs unless lattice, the known-zero count it must reach, is
    None; the contour average runs with average.  Both read the trapezoid
    grids of n points on the half circle (_trapezoid) from one evaluation of
    1024 points, and each doubling evaluates only the new odd-index points:
    linspace(0, pi, n + 1)[::2] equals linspace(0, pi, n/2 + 1) bit for bit
    and a point's value depends on f and that point alone, so a coarser
    grid, a strided view, holds what a fresh evaluation at its points gives.
    The count reads the grids from 512 to 2^17 points (_half_winding) until
    two consecutive ones give the same integer.  The average reads those
    from MIN_GRID to MAX_GRID until successive values differ by less than
    1e-7 (with a zero at clearance d the refinement error decays like
    exp(-n d / r), so the successive difference understates the true error
    and needs headroom).  samples is the finest n evaluated.  The count
    raises as soon as it fails; the average only once the count has
    settled, so a caller that asks for both gets the count's error first.
    Non-convergence signals a zero on or near the contour and the caller is
    expected to perturb r.
    """
    wind_n = 0 if lattice is None else 512  # next grid each part reads; 0 once settled
    avg_n = MIN_GRID if average else 0
    winding = rhs = failed = None
    n = 1024
    theta = np.linspace(0.0, math.pi, n // 2 + 1)
    scale, inner = _stable_terms(ctx.f, r * np.exp(1j * theta))
    while True:
        while 0 < wind_n <= n:
            # Contiguous copies: ufuncs may round a strided view otherwise.
            k = _half_winding(ctx, r, theta[::n // wind_n].copy(),
                              inner[::n // wind_n].copy())
            if k is not None and k == winding:
                if k < lattice:
                    raise PhaseTrackingError(
                        f"winding count {k} below lattice count {lattice} at |z|={r}")
                wind_n = 0
            elif wind_n == 1 << 17:
                raise PhaseTrackingError(
                    f"phase tracking did not stabilize at |z|={r} within {wind_n} "
                    "samples (zero near the contour?)")
            else:
                winding, wind_n = k, 2 * wind_n
        while 0 < avg_n <= n:
            step = n // avg_n
            try:
                cur = _trapezoid(ctx, r, theta[::step].copy(),
                                 _log_abs(scale[::step].copy(), inner[::step].copy()))
            except QuadratureError as exc:
                failed, avg_n = exc, 0
                break
            if rhs is not None and abs(cur - rhs) < 1e-7:
                avg_n = 0
            elif avg_n == MAX_GRID:
                failed, avg_n = QuadratureError(
                    f"contour average at |z|={r} did not converge (zero near the contour?)"), 0
            else:
                avg_n *= 2
            rhs = cur
        if failed is not None and not wind_n:
            raise failed
        if not wind_n and not avg_n:
            return winding, rhs, n
        n *= 2
        theta = np.linspace(0.0, math.pi, n // 2 + 1)
        coarse = scale, inner
        scale, inner = np.empty(theta.shape), np.empty(theta.shape, dtype=complex)
        scale[::2], inner[::2] = coarse
        scale[1::2], inner[1::2] = _stable_terms(ctx.f, r * np.exp(1j * theta[1::2]))


def jensen_rhs(ctx: JensenContext, r: float) -> float:
    """(1/(2 pi r^2)) contour average of log|F(r e^{i theta})| by trapezoid.

    With a complete zero set (JensenContext.zero_set_complete) the grid is
    _proven_grid, chosen before any sample so that the value errs by at
    most RHS_TOL.  Otherwise the grid is doubled until two values agree
    (_uncertified_circle).  Either way the rule is _trapezoid's.
    """
    r = _radius(r, "r")
    if ctx.zero_set_complete:
        n = _proven_grid(ctx, _known_moduli(ctx, 3.0 * r + 1.0), r)
        return _contour_averages(ctx, [(r, n)])[0]
    return _uncertified_circle(ctx, r, None, average=True)[1]


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
    """Deterministically nudge r upward to the radius in [r, r+SAFE_SPAN] farthest
    from every known-zero modulus (never closer than CIRCLE_CLEARANCE)."""
    r = _radius(r, "r")
    mods = _known_moduli(ctx, r + SAFE_SPAN + 1.0)
    return _safe_radius(mods, r)


def _safe_radius(mods: np.ndarray, r: float) -> float:
    """safe_radius from the sorted known-zero moduli up to r + SAFE_SPAN + 1."""
    if mods.size == 0:
        return float(r)
    cands = r + np.arange(0, int(round(SAFE_SPAN / 1e-4)) + 1) * 1e-4
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
    samples: int  # the proven contour grid at r, or the finest one evaluated


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
    (when the zero count confirms all zeros are enumerated), 1e-6 on the
    right link; the chord density of the full zero set must stay below
    1 + 40/r.  C is the certified constant JensenContext.log_c, fixed before
    any sample is taken, so the right link can fail.  Violations raise with
    diagnostic values.  With a complete zero set every radius and its
    proven grid are fixed first and all contour points are evaluated at
    once; each row records that grid (samples).  Otherwise one pass of
    _uncertified_circle per radius gives the winding count, the contour
    average and the finest grid they evaluated (samples), and a failing
    count raises before a failing average.
    """
    rs = [_radius(r, "radii") for r in radii]
    if not rs:
        raise ValueError("radii must be nonempty")
    a = ctx.gauss_rate
    log_c = ctx.log_c
    lam = ctx.real_zeros
    full_pts = ctx.real_zeros.points
    if ctx.order >= 1:
        full_pts = tuple(sorted(full_pts + (0.0,)))
    full = PointSet(points=full_pts, window=ctx.real_zeros.window)

    complete = ctx.zero_set_complete
    steps, rhss = [], []
    for r0 in rs:
        # One enumeration serves the radius search, the count, the zero sum
        # and, with a complete zero set, the grid's error bound up to 3r.
        # The radius search reads only the moduli within its reach: farther
        # ones could move r.
        reach = r0 + SAFE_SPAN + 1.0
        mods = _known_moduli(ctx, 3.0 * (r0 + SAFE_SPAN) + 1.0 if complete else reach)
        r = _safe_radius(mods[:np.searchsorted(mods, reach, side="right")], r0)
        lattice = _lattice_count(mods, r)
        lhs = _jensen_lhs(mods, r)
        if complete:
            steps.append((r, 0, lhs, _proven_grid(ctx, mods, r)))
        else:
            total, rhs, samples = _uncertified_circle(ctx, r, lattice, average=True)
            rhss.append(rhs)
            steps.append((r, total - lattice, lhs, samples))
    if complete:
        rhss = _contour_averages(ctx, [(r, n) for r, _, _, n in steps])

    rows = []
    circ_values = []
    for (r, extra, lhs, samples), rhs in zip(steps, rhss):
        circ = circ_density_direct(lam, [r]).values[0] if len(lam) else 0.0
        # At order 0 the full zero set's real points are the real zeros.
        circ_full = circ_density_direct(full, [r]).values[0] if ctx.order else circ
        bound = (log_c - ctx.order * math.log(r)) / (r * r) + 0.5 * a
        if extra == 0 and abs(lhs - rhs) > 2e-6:
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
                                bound=bound, extra_zeros=extra,
                                samples=samples))
        circ_values.append(circ_full)
    return BaseCaseReport(rows=tuple(rows), log_c=log_c,
                          circ_values=tuple(circ_values))
