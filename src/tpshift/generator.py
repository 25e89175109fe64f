"""Totally positive generators of Gaussian type.

A generator g is specified through its Fourier transform

    ghat(xi) = c0 * exp(-gamma * xi**2) * prod_nu (1 + 2*pi*1j*delta_nu*xi)**(-1),

a Gaussian factor divided by finitely many first-order factors with real,
nonzero shifts delta_nu.  In time, g is the Gaussian

    G(x) = c0 * sqrt(pi/gamma) * exp(-pi**2 * x**2 / gamma)

convolved with one-sided exponential densities of means delta_nu.  For
distinct shifts, partial fractions split g into a weighted sum of single
convolutions, each an exponentially modified Gaussian with a closed form
through erfcx (Grushka, Anal. Chem. 44, 1972), so g and g' are evaluated
directly; erfcx itself is Weideman's rational series (SIAM J. Numer. Anal.
31, 1994).  A table keeps g's polynomial interpolant on each cell of width
1/N as one row of a (cells, CELL_DEGREE + 1) array; an integer shift moves
whole cells, so a shift combination is again one such array, found by one
matrix product, with all its breaks at j/N.  Beyond the tables, |g| is
bounded by an exponential-moment envelope at its exact optimal tilt.  Along
the curve of optimal tilts the envelope and its point are explicit, so one
safeguarded Newton solve per side finds the decay radius that fixes the
extent of every table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Largest sum of |partial-fraction weights| accepted.  The weighted terms
# cancel when shifts of one sign nearly coincide, and the evaluation error
# grows like 1e-16 times this sum (2.4e-13 at 9e3, 2.8e-9 at 4e7).
MAX_WEIGHT_SUM = 1e4
# Largest number of samples a table may hold; refused before allocating.
MAX_TABLE_POINTS = 2_000_000
# Dropped far-tail contributions per unit coefficient stay below this.
EVAL_TAIL_TOL = 1e-13
# Degree of g's interpolant on each table cell.  The table keeps it in the
# power basis, which loses digits as the degree grows (1.5e-4 at degree 16).
CELL_DEGREE = 9
# Most evaluations of one safeguarded Newton solve for a tilt.
_TILT_STEPS = 100
# Points evaluated in closed form at once, which bounds the temporaries.
_EVAL_CHUNK = 1 << 16

# Chebyshev points of the second kind s_j = cos(pi*j/n), n = CELL_DEGREE, as
# fractions of a cell; samples there times _CHEB_FIT are the coefficients
# c_k = (2/n) sum_j'' f(s_j) cos(pi*j*k/n), the ends of the sum and c_0, c_n halved.
_CHEB_ANGLES = np.pi * np.arange(CELL_DEGREE + 1) / CELL_DEGREE
_CELL_NODES = 0.5 * (1.0 + np.cos(_CHEB_ANGLES))
_HALVE_ENDS = np.where(np.arange(CELL_DEGREE + 1) % CELL_DEGREE == 0, 0.5, 1.0)
_CHEB_FIT = (2.0 / CELL_DEGREE) * np.outer(_HALVE_ENDS, _HALVE_ENDS) \
    * np.cos(np.outer(np.arange(CELL_DEGREE + 1), _CHEB_ANGLES))
# Row k: the integer coefficients of T_k(2u - 1) in powers u^n .. u^0.
_POWER_BASIS = np.array([np.pad(np.polynomial.Chebyshev.basis(k, domain=[0, 1]).convert(
    kind=np.polynomial.Polynomial).coef[::-1], (CELL_DEGREE - k, 0))
    for k in range(CELL_DEGREE + 1)])


def _weideman_series(n: int) -> tuple:
    """(L, coefficients of p, highest power first) of Weideman's series for erfcx.

    With L = sqrt(n/sqrt(2)), erfcx(x) = 2 p(Z)/(L + x)^2 + 1/(sqrt(pi) (L + x)),
    Z = (L - x)/(L + x), for x >= 0 (Weideman, SIAM J. Numer. Anal. 31, 1994).
    p has degree n - 1; its coefficients come from one FFT of
    exp(-t^2) (L^2 + t^2) at t = L tan(theta/2) on 4n equispaced angles theta,
    the one at theta = -pi (t infinite) being 0.  p is then economized: in
    Chebyshev polynomials on [-1, 1] its trailing coefficients that sum to at
    most 2^-52 are dropped, which moves p by no more than that there and
    erfcx by less than a fifth of it, relatively.
    """
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.pi * np.arange(1 - 2 * n, 2 * n) / (4 * n))
    samples = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
    coef = np.fft.fft(np.fft.fftshift(samples)).real / (4 * n)
    cheb = np.polynomial.chebyshev.poly2cheb(coef[1:n + 1])
    dropped = np.count_nonzero(np.cumsum(np.abs(cheb[::-1])) <= 2.0**-52)
    return scale, np.polynomial.chebyshev.cheb2poly(cheb[:n - dropped])[::-1].tolist()


# 40 terms, economized to degree 23: within 1.2e-15 relative of
# scipy.special.erfcx on [0, 1e300].
_ERFCX_SCALE, _ERFCX_COEFFS = _weideman_series(40)


def _weideman(x: np.ndarray) -> tuple:
    """(y, p(Z)) of Weideman's series for erfcx at an array of x >= 0.

    With y = 1/(L + x) the series reads erfcx(x) = y (2 p(Z) y + 1/sqrt(pi)),
    and Z = 2 L y - 1 lies in [-1, 1] (-1 at x = inf, where erfcx is 0); p
    is evaluated by Horner, point by point.
    """
    y = 1.0 / (_ERFCX_SCALE + x)
    z = 2.0 * _ERFCX_SCALE * y - 1.0
    p = np.full(x.shape, _ERFCX_COEFFS[0])
    for c in _ERFCX_COEFFS[1:]:
        p *= z
        p += c
    return y, p


def _erfcx(x: np.ndarray, gap: bool = False):
    """erfcx(x) = exp(x^2) erfc(x) at an array of x >= 0 by Weideman's series.

    With gap, the pair (erfcx(x), 1 - sqrt(pi) x erfcx(x)) from one
    evaluation of the series.  As x y = 1 - L y in _weideman's terms, the
    second is y (L - 2 sqrt(pi) p(Z) (1 - L y)), without the subtraction.
    It falls like 1/(2x^2); formed so, it errs by O(eps/x) rather than eps,
    and is 0 at x = inf.
    """
    y, p = _weideman(x)
    ex = y * (2.0 * p * y + 1.0 / math.sqrt(math.pi))
    if not gap:
        return ex
    return ex, y * (_ERFCX_SCALE - 2.0 * math.sqrt(math.pi) * p * (1.0 - _ERFCX_SCALE * y))


@dataclass(frozen=True)
class GeneratorParams:
    """Parameters (c0, gamma, delta_1..delta_m) of a Gaussian-type generator."""

    c0: float
    gamma: float
    deltas: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if not (self.c0 > 0.0) or not math.isfinite(self.c0):
            raise ValueError(f"c0 must be a positive real, got {self.c0}")
        if not (self.gamma > 0.0) or not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be a positive real, got {self.gamma}")
        for d in self.deltas:
            if d == 0.0 or not math.isfinite(d):
                # Zero factors are rejected rather than dropped; silent
                # normalization would hide caller mistakes.
                raise ValueError(f"every delta must be nonzero and finite, got {self.deltas}")
        if len(set(self.deltas)) < len(self.deltas):
            raise ValueError(f"deltas must be distinct, got {self.deltas}")
        # Each on its own: at gamma 1e-300 both scales are finite, their product
        # is not.  At c0 1e-300 and gamma 1e300 the amplitude underflows to 0.
        scales = [self.gauss_rate, self.time_amplitude] + [1.0 / d for d in self.deltas]
        if not all(math.isfinite(v) for v in scales) or not self.time_amplitude > 0.0:
            raise ValueError(f"gauss_rate, time_amplitude or a 1/delta of {self} "
                             "is not a finite double, or time_amplitude is 0")
        # _evaluate shifts erfcx by u = 1/(2 a |delta|); where u is inf the
        # closed form gives E = 0 although E tends to the Gaussian.
        two_ab = [2.0 * self.gauss_rate * abs(d) for d in self.deltas]
        if not all(v > 0.0 and math.isfinite(1.0 / v) for v in two_ab):
            raise ValueError(f"deltas {self.deltas} are too small for gauss_rate "
                             f"{self.gauss_rate:.3g}: 1/(2 gauss_rate |delta|) is not "
                             "a finite double")
        weight_sum = sum(abs(w) for w in _partial_fraction_weights(self.deltas))
        if not weight_sum <= MAX_WEIGHT_SUM:
            raise ValueError(
                f"deltas {self.deltas} are too close for the partial-fraction "
                f"evaluation (weight sum {weight_sum:.3g} exceeds {MAX_WEIGHT_SUM:g})")

    @property
    def m(self) -> int:
        return len(self.deltas)

    @property
    def gauss_rate(self) -> float:
        """Rate a of the time-domain Gaussian factor exp(-a*x**2), a = pi**2/gamma."""
        return math.pi**2 / self.gamma

    @property
    def time_amplitude(self) -> float:
        """Amplitude c0*sqrt(pi/gamma) of the time-domain Gaussian factor."""
        return self.c0 * math.sqrt(math.pi / self.gamma)

    def to_json_dict(self) -> dict:
        return {"c0": self.c0, "gamma": self.gamma, "deltas": list(self.deltas)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GeneratorParams":
        if not isinstance(d, dict):
            raise ValueError("generator params must be a JSON object")
        unknown = set(d) - {"c0", "gamma", "deltas"}
        if unknown:
            raise ValueError(f"unknown generator fields: {sorted(unknown)}")
        try:
            return cls(float(d["c0"]), float(d["gamma"]), tuple(d.get("deltas", ())))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"invalid generator params: {exc}") from exc


def ft_eval(params: GeneratorParams, xi):
    """Fourier transform ghat(xi) = c0*exp(-gamma*xi^2) * prod (1+2*pi*i*delta*xi)^-1.

    Accepts a scalar or an array; the first-order denominators never vanish
    for real xi since the deltas are real.
    """
    x = np.asarray(xi, dtype=float)
    # x*x and delta*x overflow to inf only where ghat underflows to 0 (gamma > 1e-305).
    with np.errstate(over="ignore"):
        out = params.c0 * np.exp(-params.gamma * x * x) * np.ones_like(x, dtype=complex)
        for d in params.deltas:
            out = out / (1.0 + 2j * math.pi * d * x)
    if np.ndim(xi) == 0:
        return complex(out[()])
    return out


def _partial_fraction_weights(deltas) -> list:
    """Weights A_nu = prod_{mu != nu} delta_nu/(delta_nu - delta_mu) for distinct deltas.

    They split prod_mu (1 + s*delta_mu)**-1 into sum_nu A_nu (1 + s*delta_nu)**-1.
    """
    return [math.prod(d / (d - e) for j, e in enumerate(deltas) if j != i)
            for i, d in enumerate(deltas)]


def _evaluate(params: GeneratorParams, x: np.ndarray, deriv: bool = False) -> np.ndarray:
    """g(x), or g'(x) with deriv, in closed form at a 1-D array of points.

    With b = |delta|, s = sign(delta) and z = sqrt(a)*(1/(2ab) - s*x), the
    Gaussian G = amp*exp(-a x^2) convolved with the one-sided exponential
    density of mean delta is E = amp*sqrt(pi/a)/(2b) * exp(-a x^2) * erfcx(z).
    Where z < 0 erfcx overflows, so exp(-a x^2 + z^2) = exp(1/(4ab^2) - s*x/b),
    negative there, is taken as one exponent times
    erfc(z) = 2 - exp(-z^2) erfcx(-z), which rounds to 2 for z <= -6.  Then
    g = sum_nu A_nu E_nu and, since (1 + delta D) E = G,
    g' = sum_nu A_nu E'_nu with E' = (G - E)/delta.  That difference
    cancels for small b (E -> G).  From E = G sqrt(pi) z0 erfcx(z),
    z0 = z + s sqrt(a) x, E' also reads
    G (H(z)/delta - sqrt(pi a) x erfcx(z)/b), H(z) = 1 - sqrt(pi) z erfcx(z),
    which _erfcx forms from the series that gives erfcx(z).  Each form
    rounds by about eps/b times the size of its terms, at least G for the
    difference; where z >= 0 and the terms G (H + sqrt(pi a)|x| erfcx(z))
    of the second are below G/2, it is taken.  Elsewhere the difference
    keeps its rounding errors correlated across the nu, which the
    partial-fraction weights need when shifts of one sign nearly coincide.
    """
    if x.size > _EVAL_CHUNK:
        return np.concatenate([_evaluate(params, x[i:i + _EVAL_CHUNK], deriv)
                               for i in range(0, x.size, _EVAL_CHUNK)])
    a = params.gauss_rate
    amp = params.time_amplitude
    # x*x overflows only where exp(-a*x^2) is 0 anyway.
    with np.errstate(over="ignore"):
        gauss = amp * np.exp(-a * x * x)
    if params.m == 0:
        return -2.0 * a * x * gauss if deriv else gauss
    # Row nu of the (m, points) arrays belongs to delta_nu.  u is finite
    # (GeneratorParams checks it); scale overflows quietly to inf where b is
    # tiny, as Python floats do.  z and sx/b overflow only for |x| so large
    # that exp(-a x^2) is 0: z = -inf takes the far branch, whose exponent
    # tilt - sx/b is then -inf too, and z = +inf gives erfcx(z) = 0, so the
    # value, 0, is right.  tilt is capped at the largest double: where
    # u/(2b) overflows, every far x has sx/b > u/b = inf, and its exponent
    # is -inf rather than inf - inf.
    d = np.array(params.deltas)
    b = np.abs(d)
    sx = np.sign(d)[:, None] * x
    with np.errstate(over="ignore"):
        u = 1.0 / (2.0 * a * b)
        tilt = np.minimum(u / (2.0 * b), sys.float_info.max)
        scale = math.sqrt(math.pi / a) / (2.0 * b)
        z = math.sqrt(a) * (u[:, None] - sx)
        near = z >= 0.0
        far = ~near
        e = np.where(near, gauss, 0.0)
        nu = np.nonzero(far)[0]
        e[far] = amp * np.exp(tilt[nu] - sx[far] / b[nu])
    # Times erfcx(z) where z >= 0 and erfc(z) where z < 0; z*z overflows
    # only where exp(-z^2) is 0 anyway.
    if deriv:
        ex, gap = _erfcx(np.abs(z), gap=True)
    else:
        ex = _erfcx(np.abs(z))
    with np.errstate(over="ignore"):
        e *= np.where(near, ex, 2.0 - np.exp(-z * z) * ex)
    e *= scale[:, None]
    if deriv:
        slope = math.sqrt(math.pi * a) * x * ex
        split = near & (gap + np.abs(slope) < 0.5)
        e = np.where(split, gauss * (gap / d[:, None] - slope / b[:, None]),
                     (gauss - e) / d[:, None])
    out = np.zeros(x.shape)
    for w, e_nu in zip(_partial_fraction_weights(params.deltas), e):
        out += w * e_nu
    return out


def _evaluate_at(params: GeneratorParams, x, deriv: bool):
    arr = np.asarray(x, dtype=float)
    vals = _evaluate(params, arr.reshape(-1), deriv).reshape(arr.shape)
    return float(vals[()]) if arr.ndim == 0 else vals


def time_eval(params: GeneratorParams, x):
    """Evaluate g(x) in closed form; accepts a scalar or an array."""
    return _evaluate_at(params, x, deriv=False)


def time_deriv_eval(params: GeneratorParams, x):
    """Evaluate g'(x) in closed form; accepts a scalar or an array."""
    return _evaluate_at(params, x, deriv=True)


def reduce(params: GeneratorParams) -> GeneratorParams:
    """Drop the last first-order factor: (c0, gamma, d1..dm) -> (c0, gamma, d1..dm-1)."""
    if params.m == 0:
        raise ValueError("no first-order factor left to remove (m = 0)")
    return GeneratorParams(params.c0, params.gamma, params.deltas[:-1])


def _tilt_range(params: GeneratorParams) -> tuple:
    """The open range (lo, hi) of admissible tilts, theta*delta_nu < 1 for every nu."""
    return (max((1.0 / d for d in params.deltas if d < 0.0), default=-math.inf),
            min((1.0 / d for d in params.deltas if d > 0.0), default=math.inf))


def _tilt_curve(params: GeneratorParams, theta: float) -> tuple:
    """(x, dx/dtheta, ell) at the admissible tilt theta on the tilt curve.

    theta minimises the tilt bound of log_envelope at
    x(theta) = theta/(2a) + sum delta/(1 - theta*delta), which increases in
    theta, and ell(theta) = log amp - theta^2/(4a) - sum (u/(1 - u) + log(1 - u)),
    u = theta*delta, is the bound there, so dell/dtheta = -theta * dx/dtheta.
    At or past a pole, x is +-inf and ell is -inf.
    """
    a = params.gauss_rate
    # Divided by a before scaling: 2a and 4a overflow for gamma near 5e-308.
    x, slope = 0.5 * theta / a, 0.5 / a
    ell = math.log(params.time_amplitude) - 0.25 * theta * (theta / a)
    for d in params.deltas:
        u = theta * d
        if not u < 1.0:
            return math.copysign(math.inf, d), math.inf, -math.inf
        r = 1.0 / (1.0 - u)
        x += d * r
        slope += (d * r) * (d * r)
        ell -= u * r + math.log1p(-u)
    return x, slope, ell


def _solve_tilt(fun, lo: float, hi: float, theta: float) -> float:
    """A root in (lo, hi) of an increasing function of the tilt, negative at lo.

    fun(theta) returns (value, slope).  Newton steps from theta; a start
    outside the bracket, a step outside the shrinking bracket or one through
    an infinite slope is replaced by the bracket's midpoint.  Stops at a
    Newton step of at most 4 ulps of theta, once the bracket holds no
    midpoint, or after _TILT_STEPS evaluations.
    """
    if not lo <= theta <= hi:
        theta = 0.5 * lo + 0.5 * hi
    for _ in range(_TILT_STEPS):
        value, slope = fun(theta)
        lo, hi = (lo, theta) if value > 0.0 else (theta, hi)
        step = value / slope
        if slope < math.inf and abs(step) <= 4.0 * sys.float_info.epsilon * abs(theta):
            break
        theta = theta - step if lo < theta - step < hi else 0.5 * lo + 0.5 * hi
        if not lo < theta < hi:
            break
    return theta


def log_envelope(params: GeneratorParams, x: float) -> float:
    """log of an envelope for |g(x)| from exponential-moment bounds.

    g is positive and factors as a Gaussian convolved with one-sided
    exponential densities of means delta_nu.  For any admissible tilt theta
    (theta*delta_nu < 1 for all nu),

        g(x) <= amp * exp(theta**2/(4*a) - theta*x) * prod (1 - theta*delta_nu)**-1,

    a strictly convex bound in theta.  The envelope is its minimum over the
    admissible tilts of either sign, at the tilt with x(theta) = x on the
    tilt curve (_tilt_curve), found by one safeguarded Newton solve.  For
    m = 0 it is the Gaussian itself.
    """
    rate = 0.5 / params.gauss_rate
    lo, hi = _tilt_range(params)
    # Against a tilt of one sign, the terms delta/(1 - theta*delta) of the
    # other sign lie between delta and 0; this brackets x(theta) = x.
    if x >= sum(params.deltas):
        lo, hi = 0.0, min(hi, (x - sum(d for d in params.deltas if d < 0.0)) / rate)
    else:
        lo, hi = max(lo, (x - sum(d for d in params.deltas if d > 0.0)) / rate), 0.0

    def gap(theta):
        x_theta, slope, _ = _tilt_curve(params, theta)
        return x_theta - x, slope

    x_0, slope_0, _ = _tilt_curve(params, 0.0)
    theta = _solve_tilt(gap, lo, hi, (x - x_0) / slope_0)
    x_theta, _, ell = _tilt_curve(params, theta)
    # The bound at this tilt, whether or not it is the optimum to the last bit.
    return ell - theta * (x - x_theta)


def decay_radius(params: GeneratorParams, tol: float) -> float:
    """Smallest radius beyond which g's two-sided envelope stays below tol.

    The envelope falls from its peak amp at x(0) = sum delta to both sides,
    so the radius is the larger |x(theta)| of the two tilts, one of each
    sign, where ell(theta) = log tol on the tilt curve (_tilt_curve).  Each
    comes from one safeguarded Newton solve started past the root, and at
    it for m = 0.  Each |x| then moves out by 64 ulps of the terms that the
    bound's rounding scales with, over the envelope's slope |theta| in x,
    so the envelope computed at the radius stays below tol.  0 when amp is
    not above tol.  ValueError unless tol is finite and positive, and when
    the radius is not a finite double.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not params.time_amplitude > tol:
        return 0.0
    log_amp, log_tol = math.log(params.time_amplitude), math.log(tol)
    # ell <= log amp - theta^2/(4a) and ell <= log amp - phi(theta*delta) for
    # every delta, phi(u) = u/(1 - u) + log(1 - u), so the Gaussian root is
    # past the root, and so is the tilt where 1/(1 - theta*delta) = 2L + 2
    # for the nearest pole 1/delta, as phi >= L there (L = log(amp/tol)).
    gauss = 2.0 * math.sqrt(params.gauss_rate) * math.sqrt(log_amp - log_tol)
    near_pole = 1.0 - 0.5 / (log_amp - log_tol + 1.0)
    lo, hi = _tilt_range(params)
    reach = []
    for side, start in ((1.0, min(gauss, near_pole * hi)), (-1.0, max(-gauss, near_pole * lo))):
        def excess(theta, side=side):
            _, slope, ell = _tilt_curve(params, theta)
            return side * (log_tol - ell), side * theta * slope

        theta = _solve_tilt(excess, min(start, 0.0), max(start, 0.0), start)
        x, slope, _ = _tilt_curve(params, theta)
        # Near a pole 1 - theta*delta loses digits, and theta^2 * slope grows with them.
        slack = 64.0 * sys.float_info.epsilon * (abs(log_amp) + abs(log_tol)
                                                 + theta * slope * theta)
        reach.append(side * x + slack / abs(theta))
    if not max(reach) < math.inf:
        raise ValueError(f"the decay radius of {params} for {tol:g} is not a finite double")
    return max(reach)


def _cells_per_unit(params: GeneratorParams) -> int:
    return 4 * math.ceil(math.sqrt(params.gauss_rate))


# Every function over the same generator needs the same half-width.
@lru_cache(maxsize=64)
def table_half_width(params: GeneratorParams) -> float:
    """Half-width w of every table of the generator: where its outermost cells end.

    w = j/N with j = ceil((R + 1) N), the first point of the cell grid 1/N
    with w - 1 beyond the decay radius R for EVAL_TAIL_TOL times the
    amplitude; the extra unit covers g', which g's envelope does not bound
    directly.  ValueError if a table would hold more than MAX_TABLE_POINTS
    samples.
    """
    n_per = _cells_per_unit(params)
    tol = EVAL_TAIL_TOL * params.time_amplitude
    if not tol > 0.0:
        raise ValueError(f"the amplitude of {params} is too small to tabulate")
    cells = (decay_radius(params, tol) + 1.0) * n_per
    if not cells <= MAX_TABLE_POINTS // (2 * (CELL_DEGREE + 1)):
        raise ValueError(f"a table of {params} in cells of width 1/{n_per} needs "
                         f"more than {MAX_TABLE_POINTS} samples")
    return math.ceil(cells) / n_per


@dataclass(eq=False)
class TimeDomainTable:
    """g, or g' with deriv, of one generator as polynomial pieces on cells of width 1/N.

    N = cells_per_unit.  Row i of pieces holds, highest power first, the
    polynomial in u = N*x - j on cell j = first_cell + i, [j/N, (j+1)/N).
    The cells are symmetric about 0; outside them lookups return 0, which
    log_envelope(params, x) certifies is below EVAL_TAIL_TOL times the
    amplitude for g.  The pieces are read-only.
    """

    params: GeneratorParams
    deriv: bool
    cells_per_unit: int
    pieces: np.ndarray

    def __post_init__(self):
        self.pieces.flags.writeable = False

    @property
    def first_cell(self) -> int:
        return -(self.pieces.shape[0] // 2)

    def eval(self, x):
        return eval_pieces(self.pieces, self.first_cell, self.cells_per_unit, x)

    def shift_sum(self, first: int, weights) -> tuple:
        """(first cell, pieces) of sum_k w_k p(. - first - k), p the table's pieces.

        The shifts are contiguous, first .. first + K - 1 for K weights.  With
        cells of width 1/N an integer shift moves p's rows by exactly N, so
        with p's rows zero-padded to L blocks of N, block j of the sum is
        sum_l w_{j-l} (block l of p): one product of the (K+L-1) x L Toeplitz
        matrix of the weights, a strided view, with the blocks.  It agrees
        with summing shifted table values up to rounding, and BLAS decides
        the order of each sum.  A row that no weight reaches is a sum of
        exact 0*x products, so it stays exactly 0, where an FFT convolution
        would leave rounding noise.  A sum of more than MAX_TABLE_POINTS
        coefficients is refused (ValueError) before allocating.
        """
        n_per = self.cells_per_unit
        width, order = self.pieces.shape
        weights = np.asarray(weights, dtype=float)
        n_pieces = (weights.size - 1) * n_per + width
        if not n_pieces * order <= MAX_TABLE_POINTS:
            raise ValueError(f"summing {weights.size} shifts in cells of width 1/{n_per} "
                             f"needs more than {MAX_TABLE_POINTS} samples")
        n_blocks = -(-width // n_per)
        blocks = np.zeros((n_blocks * n_per, order))
        blocks[:width] = self.pieces
        pad = np.zeros(n_blocks - 1)
        padded = np.concatenate([pad, weights, pad])
        # Entry (j, l) is padded[L - 1 + j - l] = w_{j-l}.
        step = padded.strides[0]
        weight_matrix = np.lib.stride_tricks.as_strided(
            padded[n_blocks - 1:], shape=(weights.size + n_blocks - 1, n_blocks),
            strides=(step, -step), writeable=False)
        coef = weight_matrix @ blocks.reshape(n_blocks, -1)
        return first * n_per + self.first_cell, coef.reshape(-1, order)[:n_pieces]


def eval_pieces(pieces: np.ndarray, first: int, n_per: int, x) -> np.ndarray:
    """Evaluate pieces on cells first, first + 1, .. of width 1/n_per, and 0 outside them.

    Each point gathers its cell's row and runs Horner in u = n_per*x - j.
    """
    arr = np.asarray(x, dtype=float)
    # Only points far outside every table overflow.
    with np.errstate(over="ignore"):
        u = arr * n_per - first
    cell = np.floor(u)
    inside = (cell >= 0.0) & (cell < pieces.shape[0])  # NaN fails
    out = np.zeros(arr.shape)
    if inside.any():
        rows = pieces[cell[inside].astype(np.intp)]
        u = u[inside] - cell[inside]
        acc = rows[:, 0]
        for k in range(1, rows.shape[1]):
            acc = acc * u + rows[:, k]
        out[inside] = acc
    return out


def build_table(params: GeneratorParams, deriv: bool = False) -> TimeDomainTable:
    """Tabulate g (or g') of a generator on cells that the generator fixes.

    The table spans [-w, w] with w = table_half_width(params), in cells of
    width 1/N with N = 4*ceil(sqrt(a)) for the Gaussian rate a.  Each cell's
    piece interpolates g at the cell's CELL_DEGREE + 1 Chebyshev points, so
    it errs by at most 5e-12 times the amplitude.  Raises ValueError, before
    allocating, when the table would hold more than MAX_TABLE_POINTS samples.
    """
    n_per = _cells_per_unit(params)
    n_half = round(table_half_width(params) * n_per)
    cells = np.arange(-n_half, n_half)
    samples = _evaluate(params, ((cells[:, None] + _CELL_NODES) / n_per).ravel(), deriv)
    # Two products, not one with their product: the Chebyshev coefficients
    # decay fast, so the large power-basis entries only meet small ones.
    cheb = samples.reshape(cells.size, -1) @ _CHEB_FIT
    return TimeDomainTable(params=params, deriv=deriv, cells_per_unit=n_per,
                           pieces=cheb @ _POWER_BASIS)
