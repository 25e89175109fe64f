"""Sign retrieval: recover f up to a global sign from |f| on a sampling set.

A real continuous f changes sign only at its zeros, so the unknown signs are
constant between consecutive "crossing slots" (gaps between adjacent sample
points).  The solver searches run-structured sign patterns with a bounded
number of changes by branch and bound over the slots in position order.
All live partial patterns advance together, LEVEL_ROWS samples per level
after the first sample, as one batch at most FRONTIER_CAP wide: a wider
batch is split into consecutive blocks, each finished before the next, so
complete patterns arrive in depth-first order.  The locally likely branch
comes first (slots where |f| dips relative to its neighbors are likely
crossings); at each level boundary a partial pattern is bounded by the
least-squares residual of the samples seen so far and dropped once that
exceeds the best complete pattern.  The design matrix comes from the
closed-form generator, with entries below roundoff of its largest zeroed.
Candidate coefficients come from one orthogonal factorization of it shared
by all patterns.

Recovered patterns are canonicalized so the first sample with nonnegligible
magnitude gets sign +1, making the {f, -f} quotient concrete.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import cache, cached_property, lru_cache
from itertools import product
from math import comb

import numpy as np

from .errors import MagnitudeFloorError, RankDeficiencyError, SearchBudgetError
from .generator import MAX_TABLE_POINTS, GeneratorParams, time_eval
from .sispace import (MAX_OFFSET, MAX_SCAN_POINTS, CoeffSeq, PointSet, SISFunction,
                      _int_value, eval_f)

# Acceptance: a pattern fits when its RMS residual drops below this times the
# peak magnitude.
ACCEPT_REL_TOL = 1e-5
# The sign search stops after scoring this many more complete patterns than
# the first; every scored pattern is within the acceptance tolerance.
PATTERN_BUDGET = 100_000
# Widest batch of partial patterns the sign search advances at once.  An
# unrestricted pass cannot prune its first m levels (2^m nodes for m
# coefficients).  Over the 144-entry sign_retrieval benchmark pool, peak RSS
# is 86 MB at 256 and 93 MB uncapped (frontiers up to 16384 wide), and the
# search is no slower than uncapped.
FRONTIER_CAP = 256
# Samples the sign search decides per level after the first, which is sample 0
# alone.  The 576 solve_signs calls of the sign_retrieval benchmark pool take
# 0.51 s in all at 6 rows, 0.57-0.66 s at 3, 4, 5 and 7, 0.87 s at 8 (6.75M
# nodes instead of 0.83M) and 1.01 s at 2 (fastest of 3 runs, BLAS threads 1).
LEVEL_ROWS = 6
# The exhaustive oracle refuses instances with more sign patterns than this.
BRUTE_FORCE_CAP = 1_000_000
COND_LIMIT = 1e12
# Samples below this times the peak cannot anchor a sign.
SIGN_FLOOR = 1e-10
# Slots whose dip score stays below this are crossing candidates for the
# restricted first pass (generous: across the test corpus true crossings
# score under 0.62).
CANDIDATE_DIP = 0.75
# Spacing of the grid on which a recovered function is compared with the truth.
CHECK_STEP = 0.05
# Largest trials x densities; each trial is a full sign search, run in sequence.
MAX_TOTAL_TRIALS = 100_000


@dataclass(frozen=True)
class MagnitudeSample:
    """Absolute values |f| observed on a sampling set."""

    lam: PointSet
    magnitudes: tuple

    def __post_init__(self):
        mags = tuple(float(v) for v in self.magnitudes)
        object.__setattr__(self, "magnitudes", mags)
        if len(mags) != len(self.lam.points):
            raise ValueError("one magnitude per sample point required")
        if any(not math.isfinite(v) or v < 0 for v in mags):
            raise ValueError("magnitudes must be finite and nonnegative")
        # The sign search's residuals are sums of squares bounded by this one.
        with np.errstate(over="ignore"):
            energy = float(np.dot(mags, mags))
        if not math.isfinite(energy):
            raise ValueError("the squared magnitudes must have a finite sum "
                             f"(a norm below {math.sqrt(sys.float_info.max):.3g})")

    def mags_array(self) -> np.ndarray:
        return np.asarray(self.magnitudes)


@dataclass(frozen=True)
class SignPattern:
    """Signs over the sampling set; change_points lists slots where they flip."""

    signs: tuple

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        object.__setattr__(self, "signs", signs)
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def change_points(self) -> tuple:
        s = self.signs
        return tuple(i for i in range(len(s) - 1) if s[i + 1] != s[i])


@dataclass(frozen=True)
class RetrievalResult:
    """Recovered coefficients and signs, canonicalized up to the global sign.

    nodes counts the children whose prefix residual was evaluated, one per
    allowed combination of a level's slot decisions (pruning acts at level
    boundaries only, so this includes children that a per-sample walk
    would have cut inside a level), patterns the complete patterns scored,
    and second_pass tells whether the unrestricted second pass of the
    search ran.  All three are deterministic.
    """

    coeffs: CoeffSeq
    signs: SignPattern
    residual: float
    nodes: int
    patterns: int
    second_pass: bool

    @property
    def sign_changes(self) -> int:
        return len(self.signs.change_points)


def _support_size(support) -> tuple:
    """(first index, number of coefficients) of a support range [klo, khi].

    Both ends lie within MAX_OFFSET of 0, as a coefficient offset does.
    """
    k_lo, k_hi = int(support[0]), int(support[1])
    if not -MAX_OFFSET <= k_lo <= k_hi <= MAX_OFFSET:
        raise ValueError(f"support range {support} must be nonempty within "
                         f"[{-MAX_OFFSET}, {MAX_OFFSET}]")
    return k_lo, k_hi - k_lo + 1


def design_matrix(params: GeneratorParams, points: np.ndarray, support) -> np.ndarray:
    """Matrix A[i, k] = g(x_i - k) over the support index range, in closed form.

    Refuses (ValueError) more than MAX_TABLE_POINTS entries before allocating.
    """
    k_lo, n_coeffs = _support_size(support)
    pts = np.asarray(points, dtype=float)
    _refuse_oversized(len(pts), n_coeffs)
    return _drop_roundoff(time_eval(params, pts[:, None] - (k_lo + np.arange(n_coeffs))))


def _refuse_oversized(n_points: int, n_coeffs: int):
    if not n_points * n_coeffs <= MAX_TABLE_POINTS:
        raise ValueError(f"a design matrix of {n_points} points and {n_coeffs} "
                         f"coefficients needs more than {MAX_TABLE_POINTS} samples")


def _drop_roundoff(a: np.ndarray) -> np.ndarray:
    """a with its entries below roundoff of the largest set to 0.

    They carry no information, but the sign search prunes far less when they
    are kept: unclipped, the m = 0 and m = 1 searches over the sign_retrieval
    benchmark pool visit 1,284,115 and 1,297,119 nodes instead of 54,258 and
    55,084.
    """
    a[np.abs(a) < 1e-15 * np.max(np.abs(a), initial=0.0)] = 0.0
    return a


# One entry: a threshold trial samples f with its design matrix, and the sign
# search of that trial fits with the same one.
@lru_cache(maxsize=1)
def _design(params: GeneratorParams, points: tuple, k_lo: int, n_coeffs: int) -> np.ndarray:
    """The read-only design matrix of points over coefficients k_lo .. k_lo + n_coeffs - 1."""
    a = design_matrix(params, np.asarray(points), (k_lo, k_lo + n_coeffs - 1))
    a.flags.writeable = False
    return a


def sample_magnitudes(f: SISFunction, lam: PointSet) -> MagnitudeSample:
    """Observe |f| on the sampling set."""
    vals = eval_f(f, lam.as_array())
    return MagnitudeSample(lam=lam, magnitudes=tuple(np.abs(vals)))


def _level_bounds(n: int) -> list:
    """Sample ranges of the search levels: [0, 1, 1 + LEVEL_ROWS, ..., n]."""
    return [0, *range(1, n, LEVEL_ROWS), n]


class _PatternFitter:
    """Shared least-squares machinery for all sign patterns of one instance.

    The design matrix is fixed; only the right-hand side changes with the
    pattern.  One thin SVD A = U diag(s) V^T gives the condition number,
    full residuals and least-squares coefficients.  Partial patterns use
    block row-updating QR (Bjorck, Numerical Methods for Least Squares
    Problems, sections 3.2 and 6.3): the level of samples lo..hi-1, b of
    them, gets one orthogonal (m+b)x(m+b) transform T, the Q.T of the
    complete QR of [R; A[lo:hi]], which maps the carried state
    (w, v[lo:hi]) to (w', e).  The running sum of |e|^2 is the
    least-squares residual of the samples seen so far, so it never
    decreases from one level to the next and bounds every completion from
    below.  The level transforms are computed on first use and serve every
    pass of the search.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.n, self.m = a.shape
        self.u, self.s, self.vt = np.linalg.svd(a, full_matrices=False)
        self.bounds = _level_bounds(self.n)

    @cached_property
    def level_updates(self) -> list:
        # LAPACK's dgeqrf and dorgqr, through numpy.
        r = np.zeros((self.m, self.m))
        updates = []
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            q, r = np.linalg.qr(np.vstack([r, self.a[lo:hi]]), mode="complete")
            r = r[:self.m]
            updates.append(q.T)
        return updates

    def sse_full(self, v: np.ndarray) -> float:
        w = self.u.T @ v
        return max(float(v @ v - w @ w), 0.0)

    def fit(self, v: np.ndarray) -> tuple:
        """Least-squares coefficients for right-hand side v and their RMS residual."""
        c = self.vt.T @ ((self.u.T @ v) / self.s)
        resid = self.a @ c - v  # not from sse_full, whose subtraction errs by ~1e-9
        return c, float(np.sqrt(np.mean(resid * resid)))


def _n_coeffs(lam: PointSet, support) -> int:
    """The number of coefficients of the support; RankDeficiencyError if the
    sampling set has fewer points, even none."""
    _, n_coeffs = _support_size(support)
    if len(lam.points) < n_coeffs:
        raise RankDeficiencyError(
            f"{len(lam.points)} samples cannot determine {n_coeffs} coefficients")
    return n_coeffs


def _fitter(params: GeneratorParams, lam: PointSet, support) -> _PatternFitter:
    """The fitter of a sampling set, refusing one too sparse for the support:
    fewer samples than coefficients, or condition number above COND_LIMIT."""
    _n_coeffs(lam, support)
    fitter = _PatternFitter(_design(params, lam.points, *_support_size(support)))
    cond = fitter.s[0] / fitter.s[-1] if fitter.s[-1] > 0 else math.inf
    if cond > COND_LIMIT:
        raise RankDeficiencyError(
            f"design matrix condition number {cond:.3e} exceeds {COND_LIMIT:.0e} "
            "(sampling set too sparse for the support)")
    return fitter


def _peak(mags: np.ndarray) -> float:
    """The largest magnitude, refused (MagnitudeFloorError) when the search's
    pruning slack (1e-9 * peak)^2 would leave the normal doubles (peak below
    about 1.5e-145, which includes an all-zero sample)."""
    peak = float(np.max(mags, initial=0.0))
    if not (1e-9 * peak) ** 2 >= sys.float_info.min:
        raise MagnitudeFloorError(
            f"largest magnitude {peak:.3g} is below "
            f"{math.sqrt(sys.float_info.min) / 1e-9:.3g}; nothing to retrieve")
    return peak


def fit_coeffs(params: GeneratorParams, lam: PointSet, signed_values, support):
    """Least-squares coefficients for given signed sample values.

    Solves min_c sum_i (sum_k c_k g(x_i - k) - v_i)^2 by SVD-based
    orthogonal factorization; returns (CoeffSeq, RMS residual).  A design
    matrix with condition number above COND_LIMIT (or fewer samples than
    coefficients) signals a sampling set too sparse for the support.
    """
    v = np.asarray(signed_values, dtype=float)
    if v.shape != (len(lam.points),):
        raise ValueError("one signed value per sample point required")
    c, rms = _fitter(params, lam, support).fit(v)
    return CoeffSeq(_support_size(support)[0], tuple(c)), rms


@cache
def _level_children(orders: tuple) -> tuple:
    """The children of a level whose slots have these branch orders.

    Children are the Cartesian product of the orders, in lexicographic
    order.  Returns each child's signs relative to its parent's last sign,
    a read-only (C, b) int8 array, and its number of flips.  A slot's order
    is one of three tuples, so the cache holds at most 3^b entries for
    levels of b slots.
    """
    flips = np.array(list(product(*orders)), dtype=bool).reshape(-1, len(orders))
    relative = np.where(np.cumsum(flips, axis=1) % 2 == 1, -1, 1).astype(np.int8)
    flips = flips.sum(axis=1)
    relative.flags.writeable = flips.flags.writeable = False
    return relative, flips


def _pattern_search(fitter: _PatternFitter, mags: np.ndarray, branch_at: np.ndarray,
                    flip_first: np.ndarray, max_changes: int, accept_sse: float,
                    prune_eps: float, budget: int, state: dict):
    """Level-synchronous branch and bound over slot decisions.

    branch_at masks the slots where a flip may be placed; elsewhere the sign
    carries over.  Sample 0 is a level of its own with sign +1; the
    following levels decide up to LEVEL_ROWS samples each (fitter.bounds).
    Each node carries the level-updated right-hand side w and the
    least-squares residual of the samples seen so far; a partial pattern is
    abandoned once that residual exceeds the acceptance threshold or the
    best complete pattern found so far (state is shared between phases),
    whichever is smaller: such branches can neither be accepted nor optimal
    among accepted patterns.

    A node's children are the allowed combinations of its level's slot
    decisions, each slot in its branch order, in lexicographic order, so
    the frontier stays in depth-first preorder; a child is allowed when its
    flips keep the pattern within max_changes.  One (L, m) @ (m, m+b)
    product with T[:, :m].T serves all L live nodes of a level; each child
    adds its parent's last sign times its row of a (C, m+b) table of signed
    tail combinations.  A frontier wider than FRONTIER_CAP is cut into
    consecutive blocks, each finished to the last sample before the next
    starts.  A block is pruned against the bound left by the complete
    patterns scored before it, and each leaf is re-checked against the live
    bound and scored one at a time with a strict "<".  The prefix residual
    never decreases, so (up to rounding in the batched products) the scored
    patterns and their order are those of a recursive per-sample
    depth-first walk, which picks the first minimum in depth-first order;
    `nodes` counts evaluated children and differs from the walk's.  Each
    block carries its live nodes' signs so far, one int8 row per node, and
    leaves read theirs directly.  Returns once more than `budget` complete
    patterns are scored.
    """
    m = fitter.m
    bounds = fitter.bounds
    orders = [((True, False) if first else (False, True)) if free else (False,)
              for free, first in zip(branch_at, flip_first)]
    heads = [t[:, :m].T for t in fitter.level_updates]
    tails = [mags[lo:hi, None] * t[:, m:].T
             for lo, hi, t in zip(bounds, bounds[1:], fitter.level_updates)]
    children = [None] + [_level_children(tuple(orders[lo - 1:hi - 1]))
                         for lo, hi in zip(bounds[1:], bounds[2:])]
    last = len(bounds) - 2
    bound = min(state["sse"] + prune_eps, accept_sse)
    root = tails[0][0]
    # Blocks: (level, signs so far, w rows, prefix SSE, changes).
    stack = [(0, np.ones((1, 1), dtype=np.int8), root[None, :m], np.array([root[m] ** 2]),
              np.zeros(1, dtype=int))]
    while stack:
        level, signs, w, sse, changes = stack.pop()
        live = sse <= bound
        if not live.all():
            signs, w, sse, changes = signs[live], w[live], sse[live], changes[live]
        if level == last:
            for leaf, prefix in zip(signs, sse):
                if prefix > bound:
                    continue
                score = fitter.sse_full(leaf * mags)
                state["patterns"] += 1
                if score < state["sse"]:
                    state["sse"] = score
                    state["signs"] = leaf
                    bound = min(score + prune_eps, accept_sse)
                if state["patterns"] > budget:
                    return
            continue
        q = level + 1
        relative, flips = children[q]
        combos = relative @ tails[q]
        sign = signs[:, -1]
        shared = w @ heads[q]
        # Built in place: at 256 nodes of 64 children this (L, C, b) array is
        # the search's largest.
        e = sign[:, None, None] * combos[:, m:]
        e += shared[:, None, m:]
        child_sse = sse[:, None] + np.einsum("lck,lck->lc", e, e)
        allowed = changes[:, None] + flips <= max_changes
        state["nodes"] += int(np.count_nonzero(allowed))
        rows, cols = np.nonzero(allowed & (child_sse <= bound))
        signs = np.concatenate([signs[rows], sign[rows, None] * relative[cols]], axis=1)
        w = shared[rows, :m] + sign[rows, None] * combos[cols, :m]
        sse = child_sse[rows, cols]
        changes = changes[rows] + flips[cols]
        for lo in reversed(range(0, rows.size, FRONTIER_CAP)):
            block = slice(lo, lo + FRONTIER_CAP)
            stack.append((q, signs[block], w[block], sse[block], changes[block]))


def _dip_scores(mags: np.ndarray) -> np.ndarray:
    """Per-slot crossing likelihood: endpoint magnitudes relative to neighbors.

    Slot j's neighborhood is samples j-2 .. j+3, clipped to the sample range.
    """
    padded = np.concatenate([np.full(2, -np.inf), mags, np.full(2, -np.inf)])
    scale = np.lib.stride_tricks.sliding_window_view(padded, 6)[:len(mags) - 1]
    scale = scale.max(axis=1) + 1e-300
    return (mags[:-1] + mags[1:]) / (2.0 * scale)


def _canonicalize(signs: np.ndarray, mags: np.ndarray) -> np.ndarray:
    anchors = np.nonzero(mags > SIGN_FLOOR * (np.max(mags) + 1e-300))[0]
    first = int(anchors[0]) if anchors.size else 0
    if signs[first] < 0:
        return -signs
    return signs


def _package(sample, support, signs, fitter, nodes, patterns,
             second_pass) -> RetrievalResult:
    mags = sample.mags_array()
    signs = _canonicalize(np.asarray(signs), mags)
    c, rms = fitter.fit(signs * mags)
    return RetrievalResult(coeffs=CoeffSeq(_support_size(support)[0], tuple(c)),
                           signs=SignPattern(signs.astype(int)), residual=rms,
                           nodes=nodes, patterns=patterns, second_pass=second_pass)


def solve_signs(params: GeneratorParams, sample: MagnitudeSample, support,
                max_changes: int) -> RetrievalResult:
    """Branch-and-bound search over run-structured sign patterns.

    Slots are decided left to right, all live partial patterns of one level
    of up to LEVEL_ROWS slots at a time (see _pattern_search), with the
    dip-preferred branch first (flip where |f| dips relative to its
    neighbors).  Complete patterns are
    scored in depth-first order, so the first is the greedy guess and
    typically near-exact, after which prefix-residual pruning collapses the
    rest of the tree.  A first pass places flips only in slots whose dip
    score marks them as crossing candidates; the rare instance whose
    crossings are not all recognized falls through to an unrestricted second
    pass.  Returns the best pattern found, canonicalized.

    Every scored pattern passed a prefix bound no larger than the acceptance
    threshold, so PATTERN_BUDGET (read at call time) caps the near-tied
    patterns scored after the first accepted one, over both passes, and
    running out returns the best so far, not necessarily the optimum.
    SearchBudgetError means that no pattern reached the tolerance.  Level
    transforms of more than MAX_TABLE_POINTS entries in all are refused
    before allocating.  A sampling set too sparse for the support (fewer
    samples than coefficients, even none, or an ill-conditioned design
    matrix, as when every sample lies far from the support) raises
    RankDeficiencyError before the magnitudes are checked.
    """
    n_coeffs = _n_coeffs(sample.lam, support)
    mags = sample.mags_array()
    if max_changes < 0:
        raise ValueError("max_changes must be nonnegative")
    bounds = _level_bounds(len(mags))
    if not sum((n_coeffs + hi - lo) ** 2 for lo, hi in zip(bounds, bounds[1:])) \
            <= MAX_TABLE_POINTS:
        raise ValueError(f"a sign search over {len(mags)} samples and {n_coeffs} "
                         f"coefficients needs more than {MAX_TABLE_POINTS} samples")
    fitter = _fitter(params, sample.lam, support)
    peak = _peak(mags)

    n = len(mags)
    n_slots = n - 1
    dips = _dip_scores(mags) if n_slots > 0 else np.empty(0)
    flip_first = dips < 0.5
    candidates = dips < CANDIDATE_DIP

    accept_sse = (ACCEPT_REL_TOL * peak) ** 2 * n
    prune_eps = (1e-9 * peak) ** 2 * n
    state = {"sse": math.inf, "signs": None, "patterns": 0, "nodes": 0}

    def accepted() -> bool:
        return state["signs"] is not None and state["sse"] < accept_sse

    _pattern_search(fitter, mags, candidates, flip_first, max_changes,
                    accept_sse, prune_eps, PATTERN_BUDGET, state)
    second_pass = (not accepted() and not candidates.all()
                   and state["patterns"] <= PATTERN_BUDGET)
    if second_pass:
        _pattern_search(fitter, mags, np.ones(n_slots, dtype=bool), flip_first,
                        max_changes, accept_sse, prune_eps, PATTERN_BUDGET, state)

    if not accepted():
        best_rms = math.sqrt(state["sse"] / n) if state["signs"] is not None else math.inf
        raise SearchBudgetError(
            f"no sign pattern within tolerance after {state['patterns']} patterns "
            f"(best RMS {best_rms:.3e})")
    return _package(sample, support, state["signs"], fitter, state["nodes"],
                    state["patterns"], second_pass)


def brute_force_signs(params: GeneratorParams, sample: MagnitudeSample, support,
                      max_changes: int) -> RetrievalResult:
    """Exhaustive oracle over all run-structured patterns with <= max_changes flips.

    Enumerates flip-slot subsets by (size, lexicographic slot order) and keeps
    the strictly best residual, so ties resolve to the earliest pattern in
    that order.  Refuses instances with more than BRUTE_FORCE_CAP subsets
    (SearchBudgetError).
    """
    from itertools import combinations

    mags = sample.mags_array()
    fitter = _fitter(params, sample.lam, support)
    _peak(mags)
    n = len(mags)
    n_slots = n - 1
    total = sum(comb(n_slots, k) for k in range(min(max_changes, n_slots) + 1))
    if total > BRUTE_FORCE_CAP:
        raise SearchBudgetError(
            f"{total} patterns exceed the enumeration cap {BRUTE_FORCE_CAP}")

    best_sse = math.inf
    best_signs = None
    for k in range(min(max_changes, n_slots) + 1):
        for flips in combinations(range(n_slots), k):
            signs = np.ones(n)
            for s in flips:
                signs[s + 1:] *= -1.0
            sse = fitter.sse_full(signs * mags)
            if sse < best_sse:
                best_sse = sse
                best_signs = signs
    return _package(sample, support, best_signs, fitter, 0, total, False)


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of a sign-retrieval threshold sweep."""

    generator: GeneratorParams
    densities: tuple
    trials: int
    seed: int
    support: tuple
    window: tuple
    max_changes: int
    noise: float = 0.0
    pair_offset: float = 0.0

    def __post_init__(self):
        dens = tuple(float(d) for d in self.densities)
        support = tuple(int(k) for k in self.support)
        window = tuple(float(w) for w in self.window)
        if len(support) != 2 or len(window) != 2:
            raise ValueError("support must be [klo, khi] and window [lo, hi]")
        if not all(math.isfinite(v) for v in dens + window + (self.noise, self.pair_offset)):
            raise ValueError("densities, window, noise and pair_offset must be finite")
        object.__setattr__(self, "densities", dens)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "window", window)
        if not all(d > 0 and math.isfinite(1.0 / d) for d in dens):
            raise ValueError("densities must be positive with a finite spacing 1/d")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.trials * len(dens) <= MAX_TOTAL_TRIALS:
            raise ValueError(f"trials x densities must be at most {MAX_TOTAL_TRIALS}")
        if self.max_changes < 0:
            raise ValueError("max_changes must be nonnegative")
        if self.window[1] <= self.window[0]:
            raise ValueError("window must be nondegenerate")
        _support_size(support)
        if self.noise < 0 or self.pair_offset < 0:
            raise ValueError("noise and pair_offset must be nonnegative")
        width = self.window[1] - self.window[0]
        samples = width * max(dens, default=0.0) * (2 if self.pair_offset > 0 else 1)
        if not max(width / CHECK_STEP, samples) < MAX_SCAN_POINTS:
            raise ValueError(f"window {self.window} needs more than {MAX_SCAN_POINTS} "
                             "check or sample points")

    def to_json_dict(self) -> dict:
        return {"generator": self.generator.to_json_dict(),
                "densities": list(self.densities), "trials": self.trials,
                "seed": self.seed, "support": list(self.support),
                "window": list(self.window), "max_changes": self.max_changes,
                "noise": self.noise, "pair_offset": self.pair_offset}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError("experiment config must be a JSON object")
        required = {"generator", "densities", "trials", "seed", "support",
                    "window", "max_changes"}
        missing = required - set(d)
        if missing:
            raise ValueError(f"experiment config missing fields: {sorted(missing)}")
        unknown = set(d) - required - {"noise", "pair_offset"}
        if unknown:
            raise ValueError(f"unknown experiment config fields: {sorted(unknown)}")
        try:
            return cls(generator=GeneratorParams.from_json_dict(d["generator"]),
                       densities=tuple(d["densities"]),
                       trials=_int_value(d["trials"], "trials"),
                       seed=_int_value(d["seed"], "seed"),
                       support=tuple(_int_value(k, "support") for k in d["support"]),
                       window=tuple(d["window"]),
                       max_changes=_int_value(d["max_changes"], "max_changes"),
                       noise=float(d.get("noise", 0.0)),
                       pair_offset=float(d.get("pair_offset", 0.0)))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"invalid experiment config: {exc}") from exc


@dataclass(frozen=True)
class ExperimentRow:
    """One density of a threshold sweep.

    Every trial is a success or fails for exactly one reason: the design
    matrix is rank deficient (RankDeficiencyError), every magnitude is below
    the search's floor (MagnitudeFloorError), no sign pattern reached the
    acceptance tolerance within the search budget (SearchBudgetError), or
    the recovered function does not match the truth.  mean_residual
    averages the trials that returned a pattern (NaN if none did).
    """

    density: float
    trials: int
    successes: int
    mean_residual: float
    rank_deficient: int
    below_floor: int
    budget_exceeded: int
    wrong_recovery: int


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple

    def success_rates(self) -> tuple:
        return tuple(w.successes / w.trials if w.trials else 0.0 for w in self.rows)

    def csv_text(self) -> str:
        lines = ["density,trials,successes,mean_residual"]
        for w in self.rows:
            lines.append(f"{w.density!r},{w.trials},{w.successes},{w.mean_residual!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"config": self.config.to_json_dict(),
                "rows": [asdict(w) for w in self.rows]}


def _draw_sampling_set(rng: np.random.Generator, density: float, window: tuple,
                       pair_offset: float) -> PointSet:
    """Jittered lattice of spacing 1/density with uniform jitter +-0.25/density."""
    lo, hi = window
    spacing = 1.0 / density
    n = int(math.floor((hi - lo) / spacing))
    base = lo + (np.arange(n) + 0.5) * spacing
    pts = base + rng.uniform(-0.25 * spacing, 0.25 * spacing, size=n)
    if pair_offset > 0:
        pts = np.concatenate([pts, pts + pair_offset * spacing])
    pts = np.unique(np.clip(pts, lo, hi))
    return PointSet(points=tuple(pts), window=window)


def run_threshold_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Seeded success-rate sweep of the solver across sampling densities.

    Per trial: draw a jittered-lattice sampling set and random real
    coefficients, hand the solver |f| on the set, and declare success when
    the recovered function matches f or -f within 1e-4 * max|f| on a dense
    check grid.  Each trial draws from its own RNG stream spawned from the
    master seed and keyed by (density, trial), so reports do not depend on
    the order trials run in.
    """
    if config.trials == 0:
        return ExperimentReport(config=config, rows=())
    params = config.generator
    lo, hi = config.window
    k_lo, n_coeffs = _support_size(config.support)
    n_grid = np.arange(lo, hi + 1e-9, CHECK_STEP).size
    # Check point i minus shift k_lo + j is point i - per*j of the lattice
    # lo - k_lo + CHECK_STEP*Z, so g is evaluated once on the lattice's span,
    # which, like the matrix, holds at most max(n_grid, per) * n_coeffs points.
    per = round(1.0 / CHECK_STEP)
    _refuse_oversized(max(n_grid, per), n_coeffs)
    first = -per * (n_coeffs - 1)
    g_lattice = time_eval(params, lo - k_lo + CHECK_STEP * np.arange(first, n_grid))
    g_grid = _drop_roundoff(
        g_lattice[np.arange(n_grid)[:, None] - per * np.arange(n_coeffs) - first])

    def run_trial(di: int, ti: int):
        ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(di, ti))
        rng = np.random.Generator(np.random.PCG64(ss))
        lam = _draw_sampling_set(rng, config.densities[di], config.window,
                                 config.pair_offset)
        c_true = rng.standard_normal(n_coeffs)
        vals = _design(params, lam.points, k_lo, n_coeffs) @ c_true
        if config.noise > 0:
            vals = vals + config.noise * float(np.max(np.abs(vals))) \
                * rng.standard_normal(len(vals))
        sample = MagnitudeSample(lam=lam, magnitudes=tuple(np.abs(vals)))
        try:
            result = solve_signs(params, sample, config.support, config.max_changes)
        except RankDeficiencyError:
            return "rank_deficient", math.nan
        except MagnitudeFloorError:
            return "below_floor", math.nan
        except SearchBudgetError:
            return "budget_exceeded", math.nan
        f_true = g_grid @ c_true
        f_hat = g_grid @ np.asarray(result.coeffs.coeffs)
        err = min(float(np.max(np.abs(f_hat - f_true))),
                  float(np.max(np.abs(f_hat + f_true))))
        ok = err <= 1e-4 * float(np.max(np.abs(f_true)))
        return ("success" if ok else "wrong_recovery"), result.residual

    rows = []
    for di, d in enumerate(config.densities):
        chunk = [run_trial(di, ti) for ti in range(config.trials)]
        outcomes = [outcome for outcome, _ in chunk]
        residuals = [r for _, r in chunk if not math.isnan(r)]
        mean_res = float(np.mean(residuals)) if residuals else math.nan
        rows.append(ExperimentRow(density=float(d), trials=config.trials,
                                  successes=outcomes.count("success"),
                                  mean_residual=mean_res,
                                  rank_deficient=outcomes.count("rank_deficient"),
                                  below_floor=outcomes.count("below_floor"),
                                  budget_exceeded=outcomes.count("budget_exceeded"),
                                  wrong_recovery=outcomes.count("wrong_recovery")))
    return ExperimentReport(config=config, rows=tuple(rows))
