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
directly.  A table keeps g's polynomial interpolant on each cell of width
1/N as one row of a (cells, CELL_DEGREE + 1) array; an integer shift moves
whole cells, so a shift combination is again one such array, found by one
matrix product, with all its breaks at j/N.  A certified exponential-moment
envelope bounds |g| beyond the tabulated range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc, erfcx

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
        # Each on its own: at gamma 1e-300 both scales are finite, their product is not.
        scales = [self.gauss_rate, self.time_amplitude] + [1.0 / d for d in self.deltas]
        if not all(math.isfinite(v) for v in scales):
            raise ValueError(f"gauss_rate, time_amplitude or a 1/delta of {self} "
                             "is not a finite double")
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


def log_envelope(params: GeneratorParams, x: float) -> float:
    """log of an envelope for |g(x)| from exponential-moment bounds.

    g is positive and factors as a Gaussian convolved with one-sided
    exponential densities of means delta_nu.  For any admissible tilt theta
    (theta*delta_nu < 1 for all nu),

        g(x) <= amp * exp(theta**2/(4*a) - theta*x) * prod (1 - theta*delta_nu)**-1,

    and the envelope takes the minimum over a tilt grid.  For m = 0 the
    optimal tilt 2*a*x recovers the Gaussian itself.
    """
    side = 1 if x > 0 else -1
    a = params.gauss_rate
    # Largest admissible |theta| for arguments of this sign.
    cap = 0.999 * min((1.0 / (side * d) for d in params.deltas if side * d > 0),
                      default=math.inf)
    thetas = side * min(2.0 * a * abs(x), cap) * np.linspace(0.0, 1.0, 65)
    vals = math.log(params.time_amplitude) + thetas * (thetas / (4.0 * a) - x)
    for d in params.deltas:
        vals = vals - np.log1p(-thetas * d)
    return float(np.min(vals))


def decay_radius(params: GeneratorParams, tol: float) -> float:
    """Smallest radius beyond which g's two-sided envelope stays below tol.

    0 when the envelope's peak, the amplitude, is not above tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def above(r):
        return max(log_envelope(params, r), log_envelope(params, -r)) > math.log(tol)

    if not above(0.0):
        return 0.0
    d = 1.0
    while above(d):
        d *= 2.0
        if d > 1e6:
            raise ValueError(f"envelope never drops below {tol}")
    # above(0) holds, so the halving stops at some d > 0.
    while not above(d / 2.0):
        d /= 2.0
    lo, hi = d / 2.0, d
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def _cells_per_unit(params: GeneratorParams) -> int:
    return 4 * math.ceil(math.sqrt(params.gauss_rate))


# Every function over the same generator needs the same half-width.
@lru_cache(maxsize=64)
def table_half_width(params: GeneratorParams) -> float:
    """Half-width w of every table of the generator: where its outermost cells end.

    w = j/N is the first point of the cell grid 1/N with w - 1 beyond the
    decay radius for EVAL_TAIL_TOL times the amplitude, found by doubling
    and bisecting over j; the extra unit covers g', which g's envelope does
    not bound directly.  ValueError if a table would hold more than
    MAX_TABLE_POINTS samples.
    """
    n_per = _cells_per_unit(params)
    max_cells = MAX_TABLE_POINTS // (2 * (CELL_DEGREE + 1))
    tol = EVAL_TAIL_TOL * params.time_amplitude
    if not tol > 0.0:
        raise ValueError(f"the amplitude of {params} is too small to tabulate")

    def above(j):
        # The two-sided envelope at j/N - 1, for j >= N.
        r = j / n_per - 1.0
        return max(log_envelope(params, r), log_envelope(params, -r)) > math.log(tol)

    # Invariant: not above(hi), and above(lo) unless lo = N - 1.
    lo, hi = n_per - 1, n_per
    while above(hi):
        if hi >= max_cells:
            raise ValueError(f"a table of {params} in cells of width 1/{n_per} needs "
                             f"more than {MAX_TABLE_POINTS} samples")
        lo, hi = hi, min(2 * hi, max_cells)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi / n_per


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
