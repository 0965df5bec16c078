"""Equilibrium verification, enumeration, and search.

A profile is an equilibrium when no player gains from a unilateral change
of strategy.  Own-block linearity means the best unilateral improvement is
always attained at a pure strategy, so verification only needs the m_i
pure deviations per player.  Search iterates the classical continuous
improvement map whose fixed points are exactly the equilibria; iteration
is a heuristic, so every returned profile is re-verified and the achieved
epsilon reported honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
POLISH_EVERY = 25
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

    Weak inequalities on the stored payoffs with no tolerance: a vertex
    counts when no player strictly gains by any pure deviation.
    """
    ok = np.ones(g.m, dtype=bool)
    for i in range(g.n):
        component = g.payoffs[..., i]
        ok &= component >= component.max(axis=i, keepdims=True)
    return [tuple(int(j) for j in idx) for idx in np.argwhere(ok)]


def _improvement(g: GameSpec, s: StrategyProfile) -> tuple[list[np.ndarray], float]:
    """Per-player positive-part payoff gains of pure deviations, plus the
    largest gain (the profile's epsilon).  Every player's deviations come
    from one ``_deviations`` sweep; the payoff is the last player's
    deviations weighted by its block, exactly as ``total_payoff`` has it."""
    _require_match(g, s)
    devs = _deviations(g.payoffs, s.blocks)
    pay = s.blocks[-1] @ devs[-1]
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
    the input iff no deviation gains.
    """
    phis, _ = _improvement(g, s)
    return StrategyProfile(_mapped_blocks(s, phis))


def _mapped_blocks(s: StrategyProfile, phis) -> list[np.ndarray]:
    """The Nash-map image of each block, given the profile's gains."""
    return [(b + phi) / (1.0 + phi.sum()) for b, phi in zip(s.blocks, phis)]


def _nearest_vertex(s: StrategyProfile) -> tuple[int, ...]:
    return tuple(int(np.argmax(b)) for b in s.blocks)


def _search_from(g: GameSpec, start: StrategyProfile, max_iter: int,
                 eps: float) -> tuple[StrategyProfile, float]:
    """Damped improvement iteration from one start, tracking the best
    profile seen.  The nearest vertex is checked periodically as a polish
    candidate: the iteration approaches pure equilibria only sublinearly,
    while the snapped vertex verifies exactly."""
    cur = start
    best_profile, best_gap = None, np.inf
    for it in range(max_iter + 1):
        phis, gap = _improvement(g, cur)
        if gap < best_gap:
            best_profile, best_gap = cur, gap
        if best_gap <= eps:
            break
        if it % POLISH_EVERY == 0:
            vertex = pure_profile(g, _nearest_vertex(cur))
            _, vgap = _improvement(g, vertex)
            if vgap < best_gap:
                best_profile, best_gap = vertex, vgap
            if best_gap <= eps:
                break
        if it == max_iter:
            break
        cur = StrategyProfile([(1.0 - DAMPING) * b + DAMPING * mb
                               for b, mb in zip(cur.blocks, _mapped_blocks(cur, phis))])
    return best_profile, best_gap


def _lexicographically_before(a: StrategyProfile, b: StrategyProfile) -> bool:
    return tuple(a.concat()) < tuple(b.concat())


def find_equilibrium(g: GameSpec, seed: int = 0, max_iter: int = 10_000,
                     eps: float = SEARCH_EPS, restarts: int = 8) -> EquilibriumReport:
    """Search for an equilibrium by damped improvement iteration.

    Starts from the uniform profile, then from seeded random interior
    restarts, and returns the best verified report found; exact ties are
    broken toward the lexicographically smallest profile.  Non-convergence
    is reported, never silent: ``converged`` is false when the best epsilon
    found still exceeds ``eps``.
    """
    for name, value in (("seed", seed), ("max_iter", max_iter), ("restarts", restarts)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    best_profile, best_gap = None, np.inf
    for t in range(restarts + 1):
        if t == 0:
            start = uniform_profile(g)
        else:
            start = random_interior_profile(g, np.random.default_rng([seed, t]))
        profile, gap = _search_from(g, start, max_iter, eps)
        if gap < best_gap or (gap == best_gap
                              and _lexicographically_before(profile, best_profile)):
            best_profile, best_gap = profile, gap
        if best_gap <= eps:
            break
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
    for size1 in range(1, m1 + 1):
        for support1 in combinations(range(m1), size1):
            for size2 in range(1, m2 + 1):
                for support2 in combinations(range(m2), size2):
                    sub_a = a[np.ix_(support1, support2)]
                    sub_b = b[np.ix_(support1, support2)]
                    y_w = _indifference_weights(sub_a)
                    x_w = _indifference_weights(sub_b.T)
                    if x_w is None or y_w is None:
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
