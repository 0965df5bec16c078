"""Exact level-set analysis for games that are affine in every player's
strategy jointly.

The payoff tensor splits around an anchor, the profile where every player
plays their last strategy: offset (the payoff there), plus one effect per
player and strategy (the payoff with only that player moved, minus the
offset), plus a residual.  The game is jointly affine exactly when the
residual vanishes; ``AFFINITY_TOL`` bounds its entries, which bounds every
cross second difference by 4 * AFFINITY_TOL, while cross differences of at
most tol leave a residual of at most n(n-1)/2 * tol.  The payoff map on the
reduced chart is then matrix * r + offset, the columns being the effects of
non-last strategies, and its level sets are translates of the matrix
kernel, with dimension given by rank-nullity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import GameSpec, is_zero_sum
from .fibers import _solve, numerical_rank

AFFINITY_TOL = 1e-9
LEVEL_SET_RESIDUAL = 1e-8
INTERVAL_TOL = 1e-12      # slack of simplex_interval's box tests


def _decompose(g: GameSpec) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Offset, per-player effects (shape (m_p, n), last row zero) and the
    largest residual entry of the payoff tensor, anchored at the
    all-last-strategy profile."""
    payoffs = g.payoffs
    if 0 in g.m or not np.all(np.isfinite(payoffs)):
        raise ValueError("affinity test needs a nonempty, complete, finite payoff tensor")
    anchor = tuple(mi - 1 for mi in g.m)
    offset = payoffs[anchor].copy()
    effects = [payoffs[anchor[:p] + (slice(None),) + anchor[p + 1:]] - offset
               for p in range(g.n)]
    residual = payoffs - offset          # the one tensor-sized temporary
    for p, effect in enumerate(effects):
        residual -= np.expand_dims(effect, [q for q in range(g.n) if q != p])
    return offset, effects, float(np.abs(residual, out=residual).max())


def is_jointly_affine(g: GameSpec, tol: float = AFFINITY_TOL) -> bool:
    """True iff the payoff tensor is offset plus per-player effects, up to
    a residual of at most ``tol`` at every pure profile (a certificate, not
    a sample).  A game without pure profiles is affine."""
    return 0 in g.m or _decompose(g)[2] <= tol


@dataclass(frozen=True)
class AffineRepresentation:
    """The payoff map of a jointly-affine game as matrix * r + offset on the
    reduced chart.  With the zero-sum reduction the last (dependent) payoff
    component is dropped."""

    matrix: np.ndarray
    offset: np.ndarray
    zero_sum_reduced: bool

    @property
    def rank(self) -> int:
        return numerical_rank(self.matrix)[0]


@dataclass(frozen=True)
class AffineLevelSet:
    """One level set: an affine subset base + span(kernel_basis) of the chart."""

    base_point: np.ndarray
    kernel_basis: np.ndarray         # one orthonormal row per kernel direction
    dimension: int


def extract_affine(g: GameSpec, use_zero_sum_reduction: bool = False) -> AffineRepresentation:
    """Exact affine representation of a jointly-affine game.

    The offset is the payoff at the chart origin (the anchor) and column j
    of the matrix is the payoff difference along the j-th chart direction
    (an effect); for an affine map these are the exact coefficients.
    """
    offset, effects, largest_residual = _decompose(g)
    if largest_residual > AFFINITY_TOL:
        raise ValueError("not jointly affine: the payoff map has strategy interactions")
    if use_zero_sum_reduction and not is_zero_sum(g):
        raise ValueError("not zero-sum: cannot apply the zero-sum reduction")
    matrix = np.hstack([effect[:-1].T for effect in effects])
    if use_zero_sum_reduction:
        matrix = matrix[:-1]
        offset = offset[:-1]
    return AffineRepresentation(matrix=matrix, offset=offset,
                                zero_sum_reduced=use_zero_sum_reduction)


def _chart_box(g: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """The chart's box constraints as (shift, rows): a chart point r embeds
    into the simplex iff every entry of shift + rows @ r lies in [0, 1].
    One row per chart coordinate, then one per player for the implied last
    coordinate, 1 minus the sum of that player's chart coordinates."""
    owner = np.repeat(np.arange(g.n), [mi - 1 for mi in g.m])
    implied = -1.0 * (owner == np.arange(g.n)[:, None])
    return (np.concatenate([np.zeros(owner.size), np.ones(g.n)]),
            np.vstack([np.eye(owner.size), implied]))


def _simplex_feasible(g: GameSpec, matrix: np.ndarray, rhs: np.ndarray) -> bool:
    """Whether matrix * r = rhs has a solution inside the chart's box
    constraints: a small LP feasibility problem.  scipy is imported here,
    so only callers that reach the LP pay for it."""
    from scipy.optimize import linprog

    shift, rows = _chart_box(g)
    res = linprog(c=np.zeros(matrix.shape[1]), A_eq=matrix, b_eq=rhs,
                  A_ub=np.vstack([rows, -rows]),
                  b_ub=np.concatenate([1.0 - shift, shift]),
                  bounds=(None, None), method="highs")
    return bool(res.success)


def affine_level_set(rep: AffineRepresentation, y,
                     g: GameSpec | None = None) -> AffineLevelSet | None:
    """The level set of an affine representation at payoff value y, or None
    when the level set is empty.

    The base point is the minimum-norm least-squares solution of
    matrix * r = y - offset, so it is orthogonal to the kernel; it and the
    kernel basis come from the same SVD, with the one rank cutoff of
    ``fibers``.  The set is declared empty when the residual exceeds
    ``LEVEL_SET_RESIDUAL`` (y outside the affine image) or, when the game
    is supplied, when the solution set misses the strategy simplex.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rows = rep.matrix.shape[0]
    if y.shape != (rows,):
        raise ValueError(f"payoff value has length {y.size}, expected {rows}")
    if not np.all(np.isfinite(y)):
        raise ValueError("payoff value must be finite")
    rhs = y - rep.offset
    base, basis = _solve(rep.matrix, rhs)
    residual = np.abs(rep.matrix @ base - rhs).max() if rows else 0.0
    if residual > LEVEL_SET_RESIDUAL:
        return None
    if g is not None and not _simplex_feasible(g, rep.matrix, rhs):
        return None
    return AffineLevelSet(base_point=base, kernel_basis=basis,
                          dimension=basis.shape[0])


def simplex_interval(g: GameSpec, base, direction) -> tuple[float, float] | None:
    """Parameter range t for which base + t * direction embeds into the
    simplex (all coordinates, implied ones included, inside [0, 1]).

    Intended for one-dimensional level sets, where it turns the kernel line
    into the segment actually contained in the strategy space.  Returns
    None when the line misses the simplex.
    """
    shift, rows = _chart_box(g)
    lo, hi = -np.inf, np.inf
    for c0, c1 in zip(shift + rows @ np.asarray(base, dtype=float),
                      rows @ np.asarray(direction, dtype=float)):
        if abs(c1) < INTERVAL_TOL:
            if c0 < -INTERVAL_TOL or c0 > 1.0 + INTERVAL_TOL:
                return None
            continue
        t0, t1 = (0.0 - c0) / c1, (1.0 - c0) / c1
        lo = max(lo, min(t0, t1))
        hi = min(hi, max(t0, t1))
    if lo > hi:
        return None
    return lo, hi
