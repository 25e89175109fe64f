"""Totally positive generators of Gaussian type.

A generator g is specified through its Fourier transform

    ghat(xi) = c0 * exp(-gamma * xi**2) * prod_nu (1 + 2*pi*1j*delta_nu*xi)**(-1),

a Gaussian factor divided by finitely many first-order factors with real,
nonzero shifts delta_nu.  With no first-order factors, g is the Gaussian

    g(x) = c0 * sqrt(pi/gamma) * exp(-pi**2 * x**2 / gamma),

otherwise g is recovered by inverting the transform numerically.  Values of
g on a uniform grid back fast evaluation of shift combinations; a certified
exponential-moment envelope bounds |g| beyond the tabulated range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PPoly

from .errors import QuadratureError

# Frequency-window truncation target; |ghat| <= c0*exp(-gamma*xi^2) makes the
# discarded tail certifiably smaller than this.
FREQ_TAIL_TOL = 1e-12
# The reconstructed g is real; a larger imaginary residue indicates a bug
# rather than quadrature noise.
IMAG_TOL = 1e-9


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


def freq_window(params: GeneratorParams, pad: float = 1.0) -> float:
    """Half-width W of the frequency window with Gaussian tail below FREQ_TAIL_TOL."""
    return math.sqrt(max(math.log(params.c0 / FREQ_TAIL_TOL), 0.0) / params.gamma) + pad


def _inverse_ft_quad(params: GeneratorParams, x: float, deriv: bool = False) -> float:
    """Inverse Fourier integral at a single point by adaptive quadrature."""
    w = freq_window(params, pad=2.0 if deriv else 1.0)

    def integrand(xi):
        val = ft_eval(params, xi) * np.exp(2j * math.pi * x * xi)
        if deriv:
            val = val * (2j * math.pi * xi)
        return val

    val, abserr = quad(integrand, -w, w, epsabs=1e-13, epsrel=1e-12,
                       limit=200, complex_func=True)
    if abs(abserr) > 1e-9:
        raise QuadratureError(
            f"inverse transform quadrature error {abserr:.3e} at x={x} for {params}")
    if abs(val.imag) > IMAG_TOL:
        raise QuadratureError(
            f"imaginary residue {val.imag:.3e} exceeds {IMAG_TOL} at x={x}")
    return float(val.real)


def time_eval(params: GeneratorParams, x: float) -> float:
    """Evaluate g(x).

    Closed form for the pure-Gaussian case; otherwise adaptive quadrature of
    the inverse Fourier integral over [-W, W] with the Gaussian tail of ghat
    below FREQ_TAIL_TOL outside the window.
    """
    if params.m == 0:
        return params.time_amplitude * math.exp(-params.gauss_rate * x * x)
    return _inverse_ft_quad(params, float(x))


def time_deriv_eval(params: GeneratorParams, x: float) -> float:
    """Evaluate g'(x) (transform multiplied by 2*pi*i*xi before inverting)."""
    if params.m == 0:
        a = params.gauss_rate
        return -2.0 * a * x * params.time_amplitude * math.exp(-a * x * x)
    return _inverse_ft_quad(params, float(x), deriv=True)


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
    origin: float
    values: np.ndarray
    tail_bound: TailBound

    def __post_init__(self):
        n = len(self.values)
        half = (n - 1) // 2 * self.grid_step
        xs = self.origin + np.arange(n) * self.grid_step - half
        self._spline = CubicSpline(xs, self.values)

    @property
    def half_width(self) -> float:
        return (len(self.values) - 1) // 2 * self.grid_step

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

    def shift_sum(self, shifts, weights, radius: float) -> PPoly:
        """The piecewise cubic sum_k w_k s(. - k) of the table spline s.

        With grid_step = 1/N an integer shift k moves s's pieces by exactly
        k*N, so the sum's piece coefficients are slice-adds of s's and agree
        with summing shifted spline values up to rounding.  Only s's pieces
        within `radius` of the origin enter.  Direct adds keep the sum
        exactly 0 wherever no kept piece reaches, where an FFT convolution
        would leave rounding noise.  Evaluate the result with eval_pieces.
        """
        n_per = self.steps_per_unit
        if n_per is None:
            raise ValueError(f"grid step {self.grid_step} is not 1/N for an integer N")
        n_half = (len(self.values) - 1) // 2
        reach = min(int(math.ceil(radius * n_per)), n_half)
        width = 2 * reach
        kept = self._spline.c[:, n_half - reach:n_half + reach]
        shifts = np.asarray(shifts, dtype=int)
        k0 = int(shifts.min())
        coef = np.zeros((kept.shape[0], (int(shifts.max()) - k0) * n_per + width))
        for k, w in zip(shifts, weights):
            if w != 0.0:
                start = (k - k0) * n_per
                coef[:, start:start + width] += w * kept
        first = k0 * n_per - reach
        breaks = self.origin + (first + np.arange(coef.shape[1] + 1)) / n_per
        return PPoly(coef, breaks)


def eval_pieces(pieces: PPoly, x) -> np.ndarray:
    """Evaluate a piecewise polynomial inside its breakpoint range and 0 outside."""
    arr = np.asarray(x, dtype=float)
    out = np.zeros(arr.shape)
    inside = (arr >= pieces.x[0]) & (arr <= pieces.x[-1])
    if inside.any():
        out[inside] = pieces(arr[inside])
    return out


def _fixed_grid_inverse_ft(params: GeneratorParams, x0: float, step: float,
                           nx: int, deriv: bool = False) -> np.ndarray:
    """Inverse transform on x0 + step*arange(nx) by trapezoid-on-a-grid.

    The trapezoid sum of the inverse Fourier integral with frequency step h
    equals sum_n g(x + n/h), so choosing 1/h beyond the table span plus the
    envelope decay radius makes every alias term negligible.  The sum is
    evaluated with one FFT since both grids are uniform.
    """
    env = tail_bound(params)
    span = abs(x0) + step * (nx - 1) + 1.0
    alias_gap = span + env.decay_radius(1e-16 * params.time_amplitude) + 8.0
    n_fft = next_fast_len(max(nx, int(math.ceil(alias_gap / step)) + 1))
    h = 1.0 / (n_fft * step)
    w = freq_window(params, pad=2.0 if deriv else 1.0)
    m = int(math.ceil(w / h))
    if 2 * m + 1 > n_fft:
        raise ValueError("grid step too coarse for the frequency window")
    ks = np.arange(-m, m + 1)
    xis = ks * h
    gh = ft_eval(params, xis)
    if deriv:
        gh = gh * (2j * math.pi * xis)
    gh = gh * h * np.exp(2j * math.pi * x0 * xis)
    buf = np.zeros(n_fft, dtype=complex)
    np.add.at(buf, ks % n_fft, gh)
    vals = (np.fft.ifft(buf) * n_fft)[:nx]
    if np.max(np.abs(vals.imag)) > IMAG_TOL:
        raise QuadratureError(
            f"imaginary residue {np.max(np.abs(vals.imag)):.3e} in grid inversion")
    return vals.real.copy()


def _sample_values(params: GeneratorParams, x0: float, step: float, nx: int,
                   deriv: bool = False) -> np.ndarray:
    if params.m == 0:
        xs = x0 + step * np.arange(nx)
        a = params.gauss_rate
        g = params.time_amplitude * np.exp(-a * xs * xs)
        vals = -2.0 * a * xs * g if deriv else g
    else:
        vals = _fixed_grid_inverse_ft(params, x0, step, nx, deriv=deriv)
        # g is positive; clip sub-roundoff wiggle so far tails cannot flip sign.
        peak = np.max(np.abs(vals))
        vals[np.abs(vals) < 1e-15 * peak] = 0.0
    return vals


def build_table(params: GeneratorParams, half_width: float, grid_step: float,
                deriv: bool = False) -> TimeDomainTable:
    """Tabulate g (or g') on [-half_width, half_width] with the given step."""
    if not (grid_step > 0):
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    if not (half_width >= 1.0):
        raise ValueError(f"half_width must be at least 1, got {half_width}")
    n_half = int(math.ceil(half_width / grid_step))
    nx = 2 * n_half + 1
    x0 = -n_half * grid_step
    vals = _sample_values(params, x0, grid_step, nx, deriv=deriv)
    return TimeDomainTable(grid_step=grid_step, origin=0.0, values=vals,
                           tail_bound=tail_bound(params))
