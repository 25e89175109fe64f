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
directly.  Values of g on a uniform grid back fast evaluation of shift
combinations; a certified exponential-moment envelope bounds |g| beyond the
tabulated range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, PPoly
from scipy.special import erfc, erfcx

# Largest sum of |partial-fraction weights| accepted.  The weighted terms
# cancel when shifts of one sign nearly coincide, and the evaluation error
# grows like 1e-16 times this sum (2.4e-13 at 9e3, 2.8e-9 at 4e7).
MAX_WEIGHT_SUM = 1e4
# Largest number of samples a table may hold; refused before allocating.
MAX_TABLE_POINTS = 2_000_000


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
    negative there, is taken as one exponent times erfc(z).  Then
    g = sum_nu A_nu E_nu and, since (1 + delta D) E = G,
    g' = sum_nu A_nu (G - E_nu)/delta_nu.
    """
    a = params.gauss_rate
    amp = params.time_amplitude
    # x*x overflows only where exp(-a*x^2) is 0 anyway.
    with np.errstate(over="ignore"):
        gauss = amp * np.exp(-a * x * x)
    if params.m == 0:
        return -2.0 * a * x * gauss if deriv else gauss
    out = np.zeros(x.shape)
    for d, w in zip(params.deltas, _partial_fraction_weights(params.deltas)):
        b = abs(d)
        sx = math.copysign(1.0, d) * x
        u = 1.0 / (2.0 * a * b)
        z = math.sqrt(a) * (u - sx)
        near = z >= 0.0
        far = ~near
        e = np.empty(x.shape)
        e[near] = gauss[near] * erfcx(z[near])
        e[far] = amp * np.exp(u / (2.0 * b) - sx[far] / b) * erfc(z[far])
        e *= math.sqrt(math.pi / a) / (2.0 * b)
        out += w * ((gauss - e) / d if deriv else e)
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


@dataclass(frozen=True)
class TailBound:
    """Envelope for |g| from exponential-moment bounds.

    g is positive and factors as a Gaussian convolved with one-sided
    exponential densities of means delta_nu.  For any admissible tilt theta
    (theta*delta_nu < 1 for all nu),

        g(x) <= amp * exp(theta**2/(4*a) - theta*x) * prod (1 - theta*delta_nu)**-1,

    and the envelope takes the minimum over a tilt grid.  For m = 0 the
    optimal tilt 2*a*x recovers the Gaussian itself.
    """

    log_amp: float
    gauss_rate: float
    deltas: tuple

    def _theta_cap(self, side: int) -> float:
        # Largest admissible |theta| for arguments of the given sign.
        caps = [1.0 / (side * d) for d in self.deltas if side * d > 0]
        return 0.999 * min(caps) if caps else math.inf

    def log_bound(self, x: float) -> float:
        x = float(x)
        if x == 0.0:
            return self.log_amp
        side = 1 if x > 0 else -1
        hi = min(2.0 * self.gauss_rate * abs(x), self._theta_cap(side))
        thetas = side * hi * np.linspace(0.0, 1.0, 65)
        vals = self.log_amp + thetas**2 / (4.0 * self.gauss_rate) - thetas * x
        for d in self.deltas:
            vals = vals - np.log1p(-thetas * d)
        return float(np.min(vals))

    def __call__(self, x: float) -> float:
        return math.exp(self.log_bound(x))

    def decay_radius(self, tol: float) -> float:
        """Smallest radius beyond which the two-sided envelope stays below tol."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        log_tol = math.log(tol)
        d = 1.0
        while max(self.log_bound(d), self.log_bound(-d)) > log_tol:
            d *= 2.0
            if d > 1e6:
                raise ValueError(f"envelope never drops below {tol}")
        lo, hi = d / 2.0, d
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if max(self.log_bound(mid), self.log_bound(-mid)) > log_tol:
                lo = mid
            else:
                hi = mid
        return hi


def tail_bound(params: GeneratorParams) -> TailBound:
    return TailBound(math.log(params.time_amplitude), params.gauss_rate, params.deltas)


@dataclass(eq=False)
class TimeDomainTable:
    """Uniform samples of a smooth function with a decay envelope.

    Lookups inside the tabulated range use a cubic spline (local error is
    quartic in the grid step); outside it they return 0, which the envelope
    certifies is below tail_bound(x) in magnitude.  Immutable after
    construction and shareable across threads.
    """

    grid_step: float
    values: np.ndarray
    tail_bound: TailBound

    def __post_init__(self):
        n = len(self.values)
        half = (n - 1) // 2 * self.grid_step
        xs = np.arange(n) * self.grid_step - half
        self._spline = CubicSpline(xs, self.values)

    @property
    def steps_per_unit(self) -> int | None:
        """N when grid_step == 1/N for an integer N, else None."""
        n = round(1.0 / self.grid_step)
        if n >= 1 and abs(n * self.grid_step - 1.0) <= 1e-12:
            return n
        return None

    def interpolation_error_bound(self) -> float:
        """Quartic-order bound (5/384) h^4 max|g''''|, estimated from the samples."""
        if len(self.values) < 5:
            return math.inf
        d4 = np.diff(self.values, 4) / self.grid_step**4
        return 5.0 / 384.0 * self.grid_step**4 * float(np.max(np.abs(d4)))

    def eval(self, x):
        return eval_pieces(self._spline, x)

    def shift_sum(self, shifts, weights) -> PPoly:
        """The piecewise cubic sum_k w_k s(. - k) of the table spline s.

        With grid_step = 1/N an integer shift k moves s's pieces by exactly
        k*N, so the sum's piece coefficients are slice-adds of s's and agree
        with summing shifted spline values up to rounding.  Direct adds keep
        the sum exactly 0 wherever no piece reaches, where an FFT convolution
        would leave rounding noise.  A sum of more than MAX_TABLE_POINTS
        pieces is refused (ValueError) before allocating.
        """
        n_per = self.steps_per_unit
        if n_per is None:
            raise ValueError(f"grid step {self.grid_step} is not 1/N for an integer N")
        pieces = self._spline.c
        width = pieces.shape[1]
        shifts = np.asarray(shifts, dtype=int)
        k0 = int(shifts.min())
        n_pieces = (int(shifts.max()) - k0) * n_per + width
        if not n_pieces <= MAX_TABLE_POINTS:
            raise ValueError(f"summing {shifts.size} shifts at step {self.grid_step} "
                             f"needs more than {MAX_TABLE_POINTS} samples")
        coef = np.zeros((pieces.shape[0], n_pieces))
        for k, w in zip(shifts, weights):
            if w != 0.0:
                start = (k - k0) * n_per
                coef[:, start:start + width] += w * pieces
        first = k0 * n_per - (len(self.values) - 1) // 2
        breaks = (first + np.arange(n_pieces + 1)) / n_per
        return PPoly(coef, breaks)


def eval_pieces(pieces: PPoly, x) -> np.ndarray:
    """Evaluate a piecewise polynomial inside its breakpoint range and 0 outside."""
    arr = np.asarray(x, dtype=float)
    out = np.zeros(arr.shape)
    inside = (arr >= pieces.x[0]) & (arr <= pieces.x[-1])
    if inside.any():
        out[inside] = pieces(arr[inside])
    return out


def build_table(params: GeneratorParams, half_width: float, grid_step: float,
                deriv: bool = False) -> TimeDomainTable:
    """Tabulate g (or g') on [-half_width, half_width] with the given step.

    Raises ValueError, before allocating, when the table would hold more
    than MAX_TABLE_POINTS samples.
    """
    if not (grid_step > 0):
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    if not (half_width >= 1.0):
        raise ValueError(f"half_width must be at least 1, got {half_width}")
    steps = half_width / grid_step
    if not steps <= (MAX_TABLE_POINTS - 1) // 2:
        raise ValueError(
            f"a table on [-{half_width}, {half_width}] at step {grid_step} needs "
            f"more than {MAX_TABLE_POINTS} samples")
    n_half = int(math.ceil(steps))
    x0 = -n_half * grid_step
    vals = _evaluate(params, x0 + grid_step * np.arange(2 * n_half + 1), deriv)
    return TimeDomainTable(grid_step=grid_step, values=vals, tail_bound=tail_bound(params))
