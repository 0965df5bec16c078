"""Equilibrium verification, enumeration, and search.

A profile is an equilibrium when no player gains from a unilateral change
of strategy.  Own-block linearity means the best unilateral improvement is
always attained at a pure strategy, so verification only needs the m_i
pure deviations per player; at a vertex those are one slice of the payoff
tensor, so one scan gives every vertex's epsilon.  Search starts from the
best vertex, then solves support classes with ``_class_profiles`` (one
size class of two players' support pairs, the others pure): support
enumeration on the 2-player games it covers, the two-mixer stage on games
of 3 or more players.  Only then does it iterate the classical continuous
improvement map whose fixed points are exactly the equilibria; iteration
is a heuristic, so every returned profile is verified and the achieved
epsilon reported honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import comb

import numpy as np

from .games import (
    SEARCH_EPS,
    GameSpec,
    StrategyProfile,
    _deviations,
    _require_match,
    _solve,
    pure_profile,
    random_interior_profile,
    uniform_profile,
)

DAMPING = 0.5
SUPPORT_MAX_PAIRS = 63 ** 2    # support pairs of a 6x6 game, (2^6 - 1)^2
SEARCH_MAX_ITER = 10_000   # their default damped-iteration budget: steps per start
SEARCH_RESTARTS = 8        # and seeded random starts after the uniform one

# An indifference solve keeps weights only within _SOLVE_TOL of its system
# (residual) and of the simplex (sign).  On normalized payoffs (|entry| < 1)
# with k <= 11 columns, the clipped and rescaled y then pays every row of S1
# within delta = (k + 1) * _SOLVE_TOL / (1 - _SOLVE_TOL) <= 1.2e-8 of one
# value.  So if a' beats some a in S1 by more than tau against every column
# of S2, deviating to a' gains more than tau - 2 delta against any x on S1.
# _PRUNE_SLACK covers 2 delta <= 2.4e-8 with 40x room: a support pair pruned
# at tau = eps (normalized) + _PRUNE_SLACK never has an epsilon within eps.
_SOLVE_TOL = 1e-9
_PRUNE_SLACK = 1e-6


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
    return float(verify_equilibrium(g, s, 0.0).gaps[player])


def verify_equilibrium(g: GameSpec, s: StrategyProfile, eps: float) -> EquilibriumReport:
    """Gap report for a profile; converged iff no player can improve by
    more than eps, decided on the normalized payoffs (see ``_improvement``)."""
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    _require_match(g, s)
    _, gaps, gap, within = _improvement(g, s.concat(), eps)
    return EquilibriumReport(s, gaps, float(gap), bool(within))


def pure_equilibria(g: GameSpec) -> list[tuple[int, ...]]:
    """All pure-strategy equilibria, in lexicographic profile order.

    The vertices whose gap in ``_vertex_gaps`` is 0: weak inequalities on
    the stored payoffs with no tolerance, so a vertex counts when no player
    strictly gains by any pure deviation.
    """
    return [tuple(int(j) for j in idx) for idx in np.argwhere(_vertex_gaps(g) == 0.0)]


def _enumerable(g: GameSpec) -> bool:
    """Whether support enumeration covers the game: two players with at most
    ``SUPPORT_MAX_PAIRS`` support pairs, (2^m_1 - 1)(2^m_2 - 1), its cost."""
    return g.n == 2 and (2 ** g.m[0] - 1) * (2 ** g.m[1] - 1) <= SUPPORT_MAX_PAIRS


def _require_finite(g: GameSpec) -> None:
    """Every equilibrium routine rejects a player without strategies or a non-finite payoff."""
    if 0 in g.m:
        raise ValueError("equilibria need a strategy for every player")
    if not np.isfinite(g.scale):
        raise ValueError("equilibria need finite payoffs")


@np.errstate(over="ignore")     # a gain past the float range reads as inf
def _vertex_gaps(g: GameSpec) -> np.ndarray:
    """Every pure profile's epsilon, shape ``g.m``: player i's best gain is
    the maximum of its payoff along axis i minus its payoff.  A one-hot
    contraction is exact, so this is ``verify_equilibrium``'s epsilon at
    each vertex bit for bit."""
    _require_finite(g)
    gaps = np.zeros(g.m)
    for i in range(g.n):
        component = g.payoffs[..., i]
        np.maximum(gaps, component.max(axis=i, keepdims=True) - component, out=gaps)
    return gaps


@lru_cache
def _offsets(m: tuple[int, ...]) -> tuple[int, ...]:
    """Block i of a flat profile of blocks sized ``m`` is [offsets[i], offsets[i + 1])."""
    return (0, *np.cumsum(m).tolist())


def _improvement(g: GameSpec, flat: np.ndarray,
                 eps: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Positive-part payoff gains of every pure deviation, flat (*stack, N)
    with N = sum m_i and player i's at ``_offsets(g.m)[i]``; the players'
    largest gains (*stack, n); their largest, the epsilon; and whether it is
    within ``eps``.  One ``_deviations`` sweep of the cached payoffs times
    2^-e gives them, every gain below 2, and decides against eps times 2^-e;
    they come back times 2^e, exact unless past the float range.  ``flat``
    holds flat profiles (*stack, N), a lone row (N,) the empty stack; the
    epsilons and decisions are arrays (*stack)."""
    _require_finite(g)
    at, e = _offsets(g.m), g._exponent
    pay, devs = _deviations(g._normalized_payoffs, [flat[..., a:b] for a, b in zip(at, at[1:])])
    gains = np.concatenate([dev[..., i] for i, dev in enumerate(devs)], axis=-1)
    gains = np.maximum(0.0, gains - np.repeat(pay, g.m, axis=-1))
    maxima = np.maximum.reduceat(gains, at[:-1], axis=-1)
    gap = maxima.max(axis=-1, initial=0.0)
    with np.errstate(over="ignore"):    # past the float range, a gain or eps reads as inf
        within = gap <= np.ldexp(eps, -e)
        gains, maxima, gap = np.ldexp(gains, e), np.ldexp(maxima, e), np.ldexp(gap, e)
    return gains, maxima, gap, within


def _profile(flat, m) -> StrategyProfile:
    """The profile of a flat row of blocks sized ``m``."""
    return StrategyProfile(np.split(flat, _offsets(m)[1:-1]))


def _block_sums(flat, m) -> np.ndarray:
    """Each block's sum (*stack, n), each block summed on its own as the
    block-by-block map (the tests' ``loop_nash_map``) sums it, so the map is
    that oracle's bit for bit: ``np.add.reduceat`` would differ on blocks of
    8 or more strategies."""
    at, sums = _offsets(m), np.empty((*flat.shape[:-1], len(m)))
    for i, (a, b) in enumerate(zip(at, at[1:])):
        flat[..., a:b].sum(axis=-1, out=sums[..., i])
    return sums


def _mapped(flat, gains, sums, m) -> np.ndarray:
    """The Nash-map image of a flat profile or stack, given its gains and
    their finite block sums."""
    return (flat + gains) / (1.0 + np.repeat(sums, m, axis=-1))


@np.errstate(over="ignore")     # the gains may sum past the float range
def nash_map(g: GameSpec, s: StrategyProfile) -> StrategyProfile:
    """Continuous improvement map with fixed points exactly at equilibria.

    Each coordinate is boosted by the positive part of the payoff gain of
    the matching pure deviation and the block renormalized; the denominator
    is at least one, so the output is always a valid profile, and it equals
    the input iff no deviation gains.  A block whose gains sum past the
    float range has no image and raises ValueError.
    """
    _require_match(g, s)
    gains = _improvement(g, s.concat())[0]
    sums = _block_sums(gains, g.m)
    if not np.isfinite(sums).all():
        raise ValueError(f"block {int(np.argmin(np.isfinite(sums)))}: "
                         "the payoff gains sum past the float range")
    return _profile(_mapped(s.concat(), gains, sums, g.m), g.m)


def find_equilibrium(g: GameSpec, seed: int = 0, max_iter: int = SEARCH_MAX_ITER,
                     eps: float = SEARCH_EPS,
                     restarts: int = SEARCH_RESTARTS) -> EquilibriumReport:
    """Search for an equilibrium: the best vertex, then support
    enumeration, then damped improvement iteration.

    The best vertex is the first with the smallest gap, in lexicographic
    order; it is returned when its gap is at most ``eps``.  Otherwise, on a
    2-player game support enumeration covers, its report with the smallest
    epsilon is returned, the first in support order on a tie.  On a game of
    3 or more players, the first profile within ``eps`` on which two
    players mix and the others play pure strategies is returned (see
    ``_two_mixers``).  When neither answers, the iteration runs from the
    uniform profile and ``restarts`` seeded random interior starts (start t
    drawn by ``default_rng([seed, t])``); ``seed``, ``max_iter`` and
    ``restarts`` budget this damped loop alone.  The starts run in lockstep
    as one array of flat profiles, one ``_deviations`` sweep an iteration.
    Each start ends at its first epsilon within ``eps``, after ``max_iter``
    steps, or where a block's gains sum past the float range (an epsilon of
    inf among them), as the map has no image there.  The loop ends once
    every start up to the first that converged has ended; later starts do
    not count.  The starts are then read in order, each by its first
    smallest epsilon, and a profile replaces the best only when its epsilon
    is strictly smaller, so the result is never worse than any vertex, the
    earlier start wins exact ties, and the answer is the one of running the
    starts one after another.  ``converged`` is ``verify_equilibrium``'s.
    """
    for name, value in (("seed", seed), ("max_iter", max_iter), ("eps", eps),
                        ("restarts", restarts)):
        if not value >= 0:
            raise ValueError(f"{name} must be non-negative")
    return _search(g, _vertex_gaps(g), None, seed, max_iter, eps, restarts)


def _answers(g, eps, seed):
    """The pure equilibria (as lists), support enumeration's reports ([] off
    its cover) and the search's, from one vertex scan and one enumeration."""
    gaps = _vertex_gaps(g)
    mixed = support_enumeration(g, eps) if _enumerable(g) else []
    return (np.argwhere(gaps == 0.0).tolist(), mixed,
            _search(g, gaps, mixed, seed, SEARCH_MAX_ITER, eps, SEARCH_RESTARTS))


def _search(g, gaps, mixed, seed, max_iter, eps, restarts) -> EquilibriumReport:
    """``find_equilibrium`` on ``gaps = _vertex_gaps(g)``; ``mixed`` is support
    enumeration's list at ``eps``, or None: enumerate if no vertex is within it."""
    vertex = np.unravel_index(np.argmin(gaps), g.m)
    best_profile, best_gap = pure_profile(g, vertex), float(gaps[vertex])
    if best_gap <= eps:
        return verify_equilibrium(g, best_profile, eps)
    if mixed is None:
        mixed = support_enumeration(g, eps) if _enumerable(g) else []
    if mixed:
        return min(mixed, key=lambda report: report.epsilon)
    found = _two_mixers(g, eps) if g.n >= 3 else None
    if found is not None:
        return found
    starts = [uniform_profile(g)] + [random_interior_profile(g, np.random.default_rng([seed, t]))
                                     for t in range(1, restarts + 1)]
    cur = np.stack([s.concat() for s in starts])    # the live starts' flat profiles
    least = np.full(restarts + 1, np.inf)           # each start's first smallest epsilon
    best = cur.copy()                               # and its profile there
    live = np.arange(restarts + 1)                  # the starts still running, in order
    first = restarts                                # the first start that converged, else the last
    with np.errstate(over="ignore"):    # the gains may sum past the float range
        for it in range(max_iter + 1):
            gains, _, gap, converged = _improvement(g, cur, eps)
            better = gap < least[live]
            least[live[better]], best[live[better]] = gap[better], cur[better]
            sums = _block_sums(gains, g.m)
            if converged.any():
                first = min(first, int(live[converged][0]))
            keep = ~converged & np.isfinite(sums).all(axis=-1) & (live <= first)
            if it == max_iter or not keep.any():
                break
            if not keep.all():
                live, cur, gains, sums = live[keep], cur[keep], gains[keep], sums[keep]
            # gains >= 0 with finite sums and DAMPING <= 1: a convex step, on the simplex
            cur = (1.0 - DAMPING) * cur + DAMPING * _mapped(cur, gains, sums, g.m)
    for t in range(first + 1):
        if least[t] < best_gap:
            best_profile, best_gap = _profile(best[t], g.m), float(least[t])
    return verify_equilibrium(g, best_profile, eps)


def _two_mixers(g: GameSpec, eps: float) -> EquilibriumReport | None:
    """The first profile within ``eps`` on which two players mix and every
    other player plays one pure strategy, or None.

    A class is a pair of players a < b with support sizes k_a, k_b >= 2;
    classes go by k_a + k_b, then |k_a - k_b|, then a, b and k_a (Porter,
    Nudelman & Shoham 2008 try the smallest supports first).  With the
    others pure, each support pair is a bimatrix indifference problem, so a
    class is one ``_class_profiles`` solve over the stack of the (a, b)
    subgames, one slice per pure profile of the others in lexicographic
    order, on the payoffs ``support_enumeration`` normalizes.  One sweep
    checks every player's deviations at the profiles it returns; the first
    within ``eps``, by slice and then support order, is returned with that
    sweep's report.  The classes tried, up to the first past
    ``SUPPORT_MAX_PAIRS`` support pairs in all, are counted before any stack
    is built; each class builds its own stack and table (``_subgames`` up
    to its two sizes) when it is solved.
    """
    normalized, tau = _normalized(g, eps)
    m, profiles = g.m, normalized[..., 0].size
    classes = sorted((ka + kb, abs(ka - kb), a, b, ka, kb)
                     for a, b in combinations(range(g.n), 2)
                     for ka in range(2, m[a] + 1) for kb in range(2, m[b] + 1))
    # each class holds its sizes' support pairs once per pure profile of the others
    totals = accumulate(comb(m[a], ka) * comb(m[b], kb) * (profiles // (m[a] * m[b]))
                        for *_, a, b, ka, kb in classes)
    tried = [c[2:] for c, total in zip(classes, totals) if total <= SUPPORT_MAX_PAIRS]
    for a, b, ka, kb in tried:
        flat = _class_profiles(g, *_subgames(normalized, tau, a, b, ka, kb), a, b, ka, kb)[0]
        if len(flat):
            _, gaps, gap, within = _improvement(g, flat, eps)
            if within.any():
                k = within.argmax()
                return EquilibriumReport(_profile(flat[k], g.m), gaps[k], float(gap[k]), True)
    return None


def _indifference_weights(mat: np.ndarray) -> np.ndarray:
    """Weights on the columns of each matrix in a stack ``(count, rows,
    cols)`` that equalize all its row payoffs, solved with the
    normalization row by one stacked ``games._solve``; a row of NaN where
    the system is inconsistent or needs negative weights."""
    count, rows, cols = mat.shape
    system = np.zeros((count, rows + 1, cols + 1))
    system[:, :rows, :cols] = mat
    system[:, :rows, cols] = -1.0       # common payoff value
    system[:, rows, :cols] = 1.0        # weights sum to one
    rhs = np.zeros(rows + 1)
    rhs[-1] = 1.0
    sol = _solve(system, rhs, 1.0)[0]   # scale 1.0: the ones are the systems' largest entries
    w = np.clip(sol[:, :cols], 0.0, None)
    # a residual within _SOLVE_TOL puts the weight sum within it of 1, so total > 0
    residual = np.abs((system @ sol[..., None])[..., 0] - rhs).max(axis=1)
    bad = (residual > _SOLVE_TOL) | (sol[:, :cols].min(axis=1) < -_SOLVE_TOL)
    return w / np.where(bad, np.nan, w.sum(axis=1))[:, None]


def _normalized(g: GameSpec, eps: float) -> tuple[np.ndarray, float]:
    """The payoffs times 2^-e that the game caches, and the dominance margin:
    eps on that scale plus ``_PRUNE_SLACK``."""
    with np.errstate(over="ignore"):    # eps past the float range prunes nothing
        return g._normalized_payoffs, np.ldexp(eps, -g._exponent) + _PRUNE_SLACK


@lru_cache
def _supports(m: int, k: int) -> tuple[tuple[np.ndarray, ...], tuple[int, ...], np.ndarray]:
    """The supports of at most k of m strategies, by size and then
    lexicographically: one index array (count, size) per size, the row
    offsets of the sizes, and the 0/1 masks (rows, m).  The cache shares
    them, so the arrays are read-only."""
    index = tuple(np.array(list(combinations(range(m), size))) for size in range(1, k + 1))
    mask = np.concatenate([(rows[..., None] == np.arange(m)).any(axis=1) for rows in index]) * 1.0
    for array in (*index, mask):
        array.setflags(write=False)
    return index, (0, *np.cumsum([len(rows) for rows in index]).tolist()), mask


def _subgames(normalized: np.ndarray, tau: float, a: int, b: int, k_a: int, k_b: int):
    """The stack (slices, m_a, m_b, 2) of players a and b's bimatrix
    subgames, one slice per pure profile of the others in lexicographic
    order, and its conditional-dominance table (slices, rows of a, rows of
    b) over their ``_supports`` of at most k_a and k_b strategies: true
    where a strategy of one support is beaten by another pure strategy of
    its player, by more than tau, against every strategy of the other."""
    others = [q for q in range(normalized.ndim - 1) if q not in (a, b)]
    stack = normalized[..., [a, b]].transpose(others + [a, b, -1])
    stack = stack.reshape(-1, *stack.shape[-3:])
    masks = _supports(stack.shape[1], k_a)[2], _supports(stack.shape[2], k_b)[2]
    held = []
    for p, own, other in zip((stack[..., 0], stack[..., 1].swapaxes(1, 2)), masks, masks[::-1]):
        unbeaten = p.swapaxes(0, 1)[:, :, None] - p <= tau     # [j', s, j, t]: j' gains <= tau
        # [j', (s, j, T)]: j' beats j by more than tau against every strategy of T
        beaten = (unbeaten.reshape(-1, p.shape[2]) @ other.T == 0).reshape(p.shape[1], -1)
        held.append(own @ beaten.any(axis=0).reshape(p.shape[:2] + (-1,)))     # [s, S, T]
    return stack, np.logical_or(held[0], held[1].swapaxes(1, 2))


def _class_profiles(g: GameSpec, stack: np.ndarray, table: np.ndarray, a: int, b: int,
                    k_a: int, k_b: int):
    """The solve of one size class of support pairs: players a < b mix on
    supports of sizes k_a and k_b, over a ``_subgames`` stack and table.
    Returns the flat profiles (pairs, N) of the support pairs where both
    sides gave weights, in (slice, support of a, support of b) order, the
    others one-hot, and each pair's support-order key: its row-major index
    within one slice of the table, by a's support, then b's."""
    (*_, supports_a), at_a, _ = _supports(stack.shape[1], k_a)
    (*_, supports_b), at_b, _ = _supports(stack.shape[2], k_b)
    # the class's block of the table marks each pair where a strategy of one
    # support is beaten by more than tau against every strategy of the other,
    # with no epsilon within eps (see _PRUNE_SLACK): only the other pairs'
    # systems are gathered and solved (Porter, Nudelman & Shoham 2008)
    block = table[:, at_a[-2]:at_a[-1], at_b[-2]:at_b[-1]]
    # a pair counts only where both sides give weights, so the second side
    # is solved on the first side's survivors (a stack's subset solves as
    # the full stack does, so this is the two-sided solve bit for bit); the
    # overdetermined side, rarely consistent, goes first: a's systems, which
    # give b's weights, when k_a >= k_b
    pairs, weights = np.flatnonzero(~block), []
    for side in (0, 1) if k_a >= k_b else (1, 0):
        if pairs.size:
            s, i, j = np.unravel_index(pairs, block.shape)
            systems = stack[s[:, None, None], supports_a[i][:, :, None],
                            supports_b[j][:, None, :], side]
            w = _indifference_weights(systems.swapaxes(1, 2) if side else systems)
            feasible = ~np.isnan(w[:, 0])
            pairs, weights = pairs[feasible], [v[feasible] for v in weights + [w]]
    at = _offsets(g.m)
    if not pairs.size:
        return np.empty((0, at[-1])), pairs
    y_w, x_w = weights if k_a >= k_b else weights[::-1]
    others = [q for q in range(g.n) if q not in (a, b)]
    *pure, i_a, i_b = np.unravel_index(pairs, (*(g.m[q] for q in others), *block.shape[1:]))
    flat, rows = np.zeros((pairs.size, at[-1])), np.arange(pairs.size)
    flat[rows[:, None], at[a] + supports_a[i_a]] = x_w
    flat[rows[:, None], at[b] + supports_b[i_b]] = y_w
    for q, j in zip(others, pure):
        flat[rows, at[q] + j] = 1.0
    return flat, (at_a[-2] + i_a) * table.shape[2] + at_b[-2] + i_b


def support_enumeration(g: GameSpec, eps: float = 1e-8) -> list[EquilibriumReport]:
    """All equilibria of a two-player game found by support enumeration.

    Each size class (k1, k2) of support pairs is one ``_class_profiles``
    solve, on the game as a stack of one slice, and reads its block of the
    game's one ``_subgames`` table.  It drops a pair unsolved when a
    strategy in one support is beaten by another pure strategy of its
    player, by more than ``eps`` plus a slack, against every strategy of
    the other support.  Any weights the solves could give such a pair leave
    that deviation a gain above ``eps``, as the slack covers the solves'
    tolerance, so the sweep would drop it: the reports are those of solving
    every pair, bit for bit.  One sweep gives each candidate with nonnegative
    weights its gaps and epsilon, each slice ``verify_equilibrium``'s bit for
    bit; those within ``eps`` are kept with that report, deduplicated within
    1e-8 by one comparison against the rows kept so far, in support order:
    by size, then lexicographically, the first player's support outermost.
    Degenerate games may admit continua of equilibria, of which this
    reports representatives.  The systems and the sweep use the payoffs
    divided by the power of two that brings max|T| into [0.5, 1), which is
    exact, so a power-of-two rescaling gives the same profiles bit for bit;
    ``eps`` stays in payoff units.
    """
    if g.n != 2:
        raise ValueError("not a 2-player game")
    if not eps >= 0:
        raise ValueError("eps must be non-negative")
    if not _enumerable(g):
        raise ValueError(
            f"supports too large: needs at most {SUPPORT_MAX_PAIRS} support pairs")
    _require_finite(g)
    slices, table = _subgames(*_normalized(g, eps), 0, 1, *g.m)     # a stack of one slice
    rows, keys = zip(*(_class_profiles(g, slices, table, 0, 1, k1, k2)
                       for k1, k2 in product(range(1, g.m[0] + 1), range(1, g.m[1] + 1))))
    stack = np.concatenate(rows)[np.argsort(np.concatenate(keys))]
    if not len(stack):
        return []
    _, gaps, gap, kept = _improvement(g, stack, eps)
    candidates = stack[kept]
    unique = np.empty_like(candidates)     # the rows of the reports found, in order
    found: list[EquilibriumReport] = []
    for row, row_gaps, epsilon in zip(candidates, gaps[kept], gap[kept]):
        if not (np.abs(unique[:len(found)] - row).max(axis=1) < 1e-8).any():
            unique[len(found)] = row
            found.append(EquilibriumReport(_profile(row, g.m), row_gaps, float(epsilon), True))
    return found
