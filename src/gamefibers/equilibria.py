"""Equilibrium verification, enumeration, and search.

A profile is an equilibrium when no player gains from a unilateral change
of strategy.  Own-block linearity means the best unilateral improvement is
always attained at a pure strategy, so verification only needs the m_i
pure deviations per player; at a vertex those are one slice of the payoff
tensor, so one scan gives every vertex's epsilon.  Search starts from the
best vertex and iterates the classical continuous improvement map whose
fixed points are exactly the equilibria; iteration is a heuristic, so
every returned profile is re-verified and the achieved epsilon reported
honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .games import (
    GameSpec,
    StrategyProfile,
    _deviations,
    _require_match,
    pure_profile,
    random_interior_profile,
    uniform_profile,
)

DAMPING = 0.5
SUPPORT_MAX_STRATEGIES = 6
SEARCH_EPS = 1e-6          # default epsilon of find_equilibrium and the CLI


@dataclass(frozen=True)
class EquilibriumReport:
    """Verification result for one profile: per-player best unilateral
    improvements (gaps) and their maximum (epsilon)."""

    profile: StrategyProfile
    gaps: np.ndarray
    epsilon: float
    converged: bool


def best_response_gap(g: GameSpec, s: StrategyProfile, player: int) -> float:
    """Best improvement available to one player by any unilateral change.

    The maximum over pure replacements of the payoff gain, clamped at zero;
    linearity in the player's own block makes pure replacements sufficient.
    """
    if not 0 <= player < g.n:
        raise IndexError(f"player index {player} out of range")
    phis, _ = _improvement(g, s)
    return float(phis[player].max())


def verify_equilibrium(g: GameSpec, s: StrategyProfile, eps: float) -> EquilibriumReport:
    """Gap report for a profile; converged iff no player can improve by
    more than eps."""
    phis, epsilon = _improvement(g, s)
    gaps = np.array([float(phi.max()) for phi in phis])
    return EquilibriumReport(profile=s, gaps=gaps, epsilon=epsilon,
                             converged=epsilon <= eps)


def pure_equilibria(g: GameSpec) -> list[tuple[int, ...]]:
    """All pure-strategy equilibria, in lexicographic profile order.

    The vertices whose gap in ``_vertex_gaps`` is 0: weak inequalities on
    the stored payoffs with no tolerance, so a vertex counts when no player
    strictly gains by any pure deviation.
    """
    return [tuple(int(j) for j in idx) for idx in np.argwhere(_vertex_gaps(g) == 0.0)]


@np.errstate(over="ignore")     # a gain past the float range reads as inf
def _vertex_gaps(g: GameSpec) -> np.ndarray:
    """Every pure profile's epsilon, shape ``g.m``: player i's best gain is
    the maximum of its payoff along axis i minus its payoff.  A one-hot
    contraction is exact, so this is ``verify_equilibrium``'s epsilon at
    each vertex bit for bit."""
    gaps = np.zeros(g.m)
    for i in range(g.n):
        component = g.payoffs[..., i]
        np.maximum(gaps, component.max(axis=i, keepdims=True) - component, out=gaps)
    return gaps


@np.errstate(over="ignore")     # an overflowed gain reads as inf, a -inf one clips to 0
def _improvement(g: GameSpec, s: StrategyProfile) -> tuple[list[np.ndarray], float]:
    """Per-player positive-part payoff gains of pure deviations, plus the
    largest gain (the profile's epsilon).  The payoff and every player's
    deviations come from one ``_deviations`` sweep."""
    _require_match(g, s)
    pay, devs = _deviations(g.payoffs, s.blocks)
    phis = []
    gap = 0.0
    for i, dev in enumerate(devs):
        phi = np.maximum(0.0, dev[:, i] - pay[i])
        phis.append(phi)
        gap = max(gap, float(phi.max()))
    return phis, gap


def nash_map(g: GameSpec, s: StrategyProfile) -> StrategyProfile:
    """Continuous improvement map with fixed points exactly at equilibria.

    Each coordinate is boosted by the positive part of the payoff gain of
    the matching pure deviation and the block renormalized; the denominator
    is at least one, so the output is always a valid profile, and it equals
    the input iff no deviation gains.  A block whose gains sum past the
    float range has no image and raises ValueError.
    """
    phis, _ = _improvement(g, s)
    with np.errstate(over="ignore"):
        for i, phi in enumerate(phis):
            if not np.isfinite(phi.sum()):
                raise ValueError(f"block {i}: the payoff gains sum past the float range")
    return StrategyProfile(_mapped_blocks(s, phis))


def _mapped_blocks(s: StrategyProfile, phis) -> list[np.ndarray]:
    """The Nash-map image of each block, given the profile's gains."""
    return [(b + phi) / (1.0 + phi.sum()) for b, phi in zip(s.blocks, phis)]


def find_equilibrium(g: GameSpec, seed: int = 0, max_iter: int = 10_000,
                     eps: float = SEARCH_EPS, restarts: int = 8) -> EquilibriumReport:
    """Search for an equilibrium from the best vertex by damped improvement
    iteration.

    The best vertex is the first one with the smallest gap, in
    lexicographic order; it is returned at once when its gap is at most
    ``eps``.  Otherwise the iteration runs from the uniform profile, then
    from seeded random interior restarts, and a profile replaces the best
    one only when its epsilon is strictly smaller, so the result is never
    worse than any vertex and, among starts, the earlier one wins exact
    ties.  A start ends at a profile whose epsilon overflows to inf, where
    the map would divide inf by inf.  Non-convergence is reported, never
    silent: ``converged`` is false when the best epsilon found still
    exceeds ``eps``.
    """
    for name, value in (("seed", seed), ("max_iter", max_iter), ("restarts", restarts)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    gaps = _vertex_gaps(g)
    vertex = np.unravel_index(np.argmin(gaps), g.m)
    best_profile, best_gap = pure_profile(g, vertex), float(gaps[vertex])
    for t in range(restarts + 1):
        if best_gap <= eps:
            break
        cur = (random_interior_profile(g, np.random.default_rng([seed, t])) if t
               else uniform_profile(g))
        for it in range(max_iter + 1):
            phis, gap = _improvement(g, cur)
            if gap < best_gap:
                best_profile, best_gap = cur, gap
            if best_gap <= eps or it == max_iter or gap == np.inf:
                break
            cur = StrategyProfile([(1.0 - DAMPING) * b + DAMPING * mb
                                   for b, mb in zip(cur.blocks, _mapped_blocks(cur, phis))])
    return verify_equilibrium(g, best_profile, eps)


def _indifference_weights(mat: np.ndarray) -> np.ndarray | None:
    """Weights on the columns of ``mat`` that equalize all row payoffs,
    solved with the normalization row; None when the system is
    inconsistent or needs negative weights."""
    rows, cols = mat.shape
    system = np.zeros((rows + 1, cols + 1))
    system[:rows, :cols] = mat
    system[:rows, cols] = -1.0      # common payoff value
    system[rows, :cols] = 1.0       # weights sum to one
    rhs = np.zeros(rows + 1)
    rhs[-1] = 1.0
    # lstsq beats fibers._solve on these many tiny solves; the residual test decides
    sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if np.abs(system @ sol - rhs).max() > 1e-9:
        return None
    w = sol[:cols]
    if w.min() < -1e-9:
        return None
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        return None
    return w / total


def _supports(m: int) -> list[tuple[int, ...]]:
    """Every nonempty support of m strategies, by size, then lexicographically."""
    return [support for size in range(1, m + 1) for support in combinations(range(m), size)]


def support_enumeration(g: GameSpec, eps: float = 1e-8) -> list[EquilibriumReport]:
    """All equilibria of a two-player game found by support enumeration.

    For every pair of supports the indifference system plus normalization
    is solved; candidates with nonnegative weights that verify as
    equilibria at ``eps`` are kept, deduplicated within 1e-8, in
    deterministic support order.  Degenerate games may admit continua of
    equilibria, of which this reports representatives.  The systems use
    the payoffs divided by the power of two that brings max|T| into
    [0.5, 1), which is exact, so a power-of-two rescaling gives the same
    profiles bit for bit; ``eps`` stays in payoff units.
    """
    if g.n != 2:
        raise ValueError("not a 2-player game")
    m1, m2 = g.m
    if m1 > SUPPORT_MAX_STRATEGIES or m2 > SUPPORT_MAX_STRATEGIES:
        raise ValueError(
            f"supports too large: needs at most {SUPPORT_MAX_STRATEGIES} "
            "strategies per player")
    normalized = np.ldexp(g.payoffs, -np.frexp(g.scale)[1])
    a = normalized[..., 0]
    b = normalized[..., 1]
    found: list[EquilibriumReport] = []
    kept: list[np.ndarray] = []
    for support1, support2 in product(_supports(m1), _supports(m2)):
        sub_a = a[np.ix_(support1, support2)]
        sub_b = b[np.ix_(support1, support2)]
        y_w = _indifference_weights(sub_a)
        x_w = None if y_w is None else _indifference_weights(sub_b.T)
        if x_w is None:
            continue
        x = np.zeros(m1)
        x[list(support1)] = x_w
        y = np.zeros(m2)
        y[list(support2)] = y_w
        profile = StrategyProfile([x, y])
        report = verify_equilibrium(g, profile, eps)
        if report.epsilon > eps:
            continue
        flat = profile.concat()
        if any(np.abs(flat - other).max() < 1e-8 for other in kept):
            continue
        kept.append(flat)
        found.append(report)
    return found
