"""Exact level-set analysis for games that are affine in every player's
strategy jointly.

The payoff tensor splits around an anchor, the profile where every player
plays their last strategy: offset (the payoff there), plus one effect per
player and strategy (the payoff with only that player moved, minus the
offset), plus a residual.  The game is jointly affine exactly when the
residual vanishes; ``AFFINITY_TOL`` bounds its entries, which bounds every
cross second difference by 4 * AFFINITY_TOL, while cross differences of at
most tol leave a residual of at most n(n-1)/2 * tol, all in units of max|T|,
read by the one rule in ``games``, so rescaling changes no decision.  The
payoff map on the reduced chart is then matrix * r + offset, the columns
being the effects of non-last strategies, and its level sets are
translates of the matrix kernel, with dimension given by rank-nullity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import GameSpec, _solve, _svd

AFFINITY_TOL = 1e-9
LEVEL_SET_RESIDUAL = 1e-8
INTERVAL_TOL = 1e-12      # slack of simplex_interval's box tests


def _decompose(g: GameSpec, tol: float) -> tuple[np.ndarray, list[np.ndarray], bool]:
    """Offset, per-player effects (shape (m_p, n), last row zero) and
    whether every residual entry of the payoff tensor, anchored at the
    all-last-strategy profile, is at most ``tol`` times max|T|, all on the
    normalized payoffs (the one rule in ``games``), so none overflows.

    The residual is built one slab of the first player's strategies at a
    time and the scan stops at the first slab with an entry above the
    bound.  Each entry is the payoff minus the offset minus the effects in
    player order, as a whole-tensor residual would have it."""
    if 0 in g.m or not math.isfinite(g.scale):
        raise ValueError("affinity test needs a nonempty, complete, finite payoff tensor")
    payoffs, bound = g._normalized_payoffs, tol * np.ldexp(g.scale, -g._exponent)
    anchor = tuple(mi - 1 for mi in g.m)
    offset = payoffs[anchor].copy()
    effects = [payoffs[anchor[:p] + (slice(None),) + anchor[p + 1:]] - offset
               for p in range(g.n)]
    # effects of players 1.., broadcast as over the whole tensor, without
    # the leading (first player's) axis
    rest = [np.expand_dims(effects[p], [q for q in range(g.n) if q != p])[0]
            for p in range(1, g.n)]
    for j in range(g.m[0]):
        residual = payoffs[j] - offset
        residual -= effects[0][j]
        for effect in rest:
            residual -= effect
        if not np.abs(residual, out=residual).max() <= bound:
            return offset, effects, False
    return offset, effects, True


def is_jointly_affine(g: GameSpec, tol: float = AFFINITY_TOL) -> bool:
    """True iff the payoff tensor is offset plus per-player effects, up to
    a residual of at most ``tol`` times max|T| (relative, as in ``is_zero_sum``)
    at every pure profile: a certificate.  A game without pure profiles is affine."""
    return 0 in g.m or _decompose(g, tol)[2]


@dataclass(frozen=True)
class AffineRepresentation:
    """The payoff map of a jointly-affine game as matrix * r + offset on the
    reduced chart.  With the zero-sum reduction the last (dependent) payoff
    component is dropped."""

    matrix: np.ndarray
    offset: np.ndarray
    zero_sum_reduced: bool

    @property
    def scale(self) -> float:
        """max(|offset|, |matrix|): the unit of the rank floor and LEVEL_SET_RESIDUAL."""
        return float(np.abs(np.append(self.offset, self.matrix)).max(initial=0.0))

    @property
    def rank(self) -> int:
        return _svd(self.matrix, False, self.scale)[0]


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
    (an effect); for an affine map these are the exact coefficients, scaled
    back from the normalized payoffs by 2^e: ValueError if one passes the float range.
    """
    offset, effects, affine = _decompose(g, AFFINITY_TOL)
    if not affine:
        raise ValueError("not jointly affine: the payoff map has strategy interactions")
    if use_zero_sum_reduction and not g.zero_sum:
        raise ValueError("not zero-sum: cannot apply the zero-sum reduction")
    rows = offset.size - use_zero_sum_reduction     # the reduction drops the last component
    matrix = np.hstack([effect[:-1, :rows].T for effect in effects])
    with np.errstate(over="ignore"):    # an entry past the float range reads inf
        rep = AffineRepresentation(matrix=np.ldexp(matrix, g._exponent),
                                   offset=np.ldexp(offset[:rows], g._exponent),
                                   zero_sum_reduced=use_zero_sum_reduction)
    if not math.isfinite(rep.scale):
        raise ValueError("affine representation passes the float range")
    return rep


def _chart_box(g: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """The chart's box constraints as (shift, rows): a chart point r embeds
    into the simplex iff every entry of shift + rows @ r lies in [0, 1].
    One row per chart coordinate, then one per player for the implied last
    coordinate, 1 minus the sum of that player's chart coordinates."""
    owner = np.repeat(np.arange(g.n), [mi - 1 for mi in g.m])
    implied = -1.0 * (owner == np.arange(g.n)[:, None])
    return (np.concatenate([np.zeros(owner.size), np.ones(g.n)]),
            np.vstack([np.eye(owner.size), implied]))


def _witness(g: GameSpec, box, rep: AffineRepresentation, rhs: np.ndarray,
             base: np.ndarray, basis: np.ndarray) -> bool:
    """Whether the point of base + span(basis) nearest the uniform profile
    has a residual of at most ``LEVEL_SET_RESIDUAL`` times the scale and lies
    in the chart's ``box`` with no slack: a point proving the set meets the simplex."""
    center = np.concatenate([np.full(mi - 1, 1.0 / mi) for mi in g.m])
    point = base + basis.T @ (basis @ (center - base))
    shift, rows = box
    coords = shift + rows @ point
    residual = np.abs(rep.matrix @ point - rhs).max(initial=0.0)
    return bool(residual <= LEVEL_SET_RESIDUAL * rep.scale
                and coords.min() >= 0.0 and coords.max() <= 1.0)


def _simplex_feasible(box, matrix: np.ndarray, rhs: np.ndarray) -> bool:
    """Whether matrix * r = rhs has a solution inside the chart's ``box``
    constraints: a small LP feasibility problem.  scipy is imported here,
    so only callers that reach the LP pay for it."""
    from scipy.optimize import linprog

    shift, rows = box
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
    ``fibers`` at the representation's scale.  The set is declared empty
    when the residual exceeds ``LEVEL_SET_RESIDUAL`` times that scale (y
    outside the affine image) or, when the game is supplied, when the
    solution set misses the strategy simplex: an LP decides that, unless
    one ``_witness`` point proves the set meets it.  A game whose chart
    does not have the matrix's column count is rejected.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rows, cols = rep.matrix.shape
    if y.shape != (rows,):
        raise ValueError(f"payoff value has length {y.size}, expected {rows}")
    if not np.all(np.isfinite(y)):
        raise ValueError("payoff value must be finite")
    if g is not None and g.reduced_dim != cols:
        raise ValueError(f"game has {g.reduced_dim} chart coordinates, expected {cols}")
    rhs = y - rep.offset
    with np.errstate(over="ignore", invalid="ignore"):  # rhs / 2^e may pass the float range
        base, rank, vt = _solve(rep.matrix, rhs, rep.scale)
    basis = vt[rank:]
    # a base point that is not finite leaves a NaN residual: the set reads empty
    if not np.abs(rep.matrix @ base - rhs).max(initial=0.0) <= LEVEL_SET_RESIDUAL * rep.scale:
        return None
    if g is not None:
        box = _chart_box(g)
        e = np.frexp(rep.scale)[1]  # HiGHS's tolerances are absolute: exact 2^-e rescaling
        if not (_witness(g, box, rep, rhs, base, basis) or _simplex_feasible(
                box, np.ldexp(rep.matrix, -e), np.ldexp(rhs, -e))):
            return None
    return AffineLevelSet(base_point=base, kernel_basis=basis,
                          dimension=basis.shape[0])


def simplex_interval(g: GameSpec, base, direction) -> tuple[float, float] | None:
    """Parameter range t for which base + t * direction embeds into the
    simplex (all coordinates, implied ones included, inside [0, 1]).

    Intended for one-dimensional level sets, where it turns the kernel line
    into the segment actually contained in the strategy space.  Returns
    None when the line misses the simplex.  The base point and direction
    each need ``g.reduced_dim`` finite chart coordinates.
    """
    base, direction = np.asarray(base, dtype=float), np.asarray(direction, dtype=float)
    if base.shape != (g.reduced_dim,) or direction.shape != (g.reduced_dim,):
        raise ValueError(f"base point and direction need {g.reduced_dim} chart coordinates")
    if not (np.all(np.isfinite(base)) and np.all(np.isfinite(direction))):
        raise ValueError("base point and direction must be finite")
    shift, rows = _chart_box(g)
    lo, hi = -np.inf, np.inf
    for c0, c1 in zip(shift + rows @ base, rows @ direction):
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
