"""Jacobian geometry of the payoff map: ranks, nullspaces, fiber reports,
and predictor-corrector tracing inside a level set.

Everything works on the reduced chart (one coordinate dropped per player),
where the strategy space has full dimension N - n and the payoff map is a
polynomial.  At a point where the Jacobian attains the generic rank k the
level set through the point is locally a manifold of dimension N - n - k:
the Jacobian nullspace is its tangent space, payoff change along tangent
directions is second order, and a predictor-corrector walk along the
nullspace produces an explicit path inside the fiber.

Derivative probes and the corrector evaluate the polynomial extension of
the payoff map, so points slightly outside the simplex are handled
gracefully; leaving the simplex is detected explicitly and stops a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import (
    DEFAULT_SAMPLES,
    MAX_SAMPLES,
    MAX_TRACE_STEPS,
    TRACE_TOL,
    GameSpec,
    StrategyProfile,
    _chart_buffer,
    _deviations,
    _load_chart,
    _payoff_reduced,
    _require_match,
    _solve,
    _svd,
    random_interior_profile,
    reduce_profile,
)

INTERIOR_MIN = 1e-6
CONSTANCY_EPSILONS = (1e-2, 1e-3, 1e-4)
CORRECTOR_MAX_ITER = 20
PROBE_STACK_BYTES = 4 << 20      # fiber_report's cap on a probe stack's first intermediate


def numerical_rank(mat, scale: float = 0.0) -> tuple[int, np.ndarray]:
    """(rank, singular values): the rank counts those above the cutoff at
    payoff ``scale``.  The zero matrix has rank 0."""
    rank, s, _, _ = _svd(mat, False, scale)
    return rank, s


def nullspace(mat, scale: float = 0.0) -> np.ndarray:
    """Orthonormal kernel basis at ``numerical_rank``'s cutoff, one per row."""
    rank, _, _, vt = _svd(mat, True, scale)
    return vt[rank:]


def _jacobian_buffer(m) -> tuple[np.ndarray, list[np.ndarray]]:
    """An unfilled (n, N - n) Jacobian and each player's columns as one
    (m_p - 1, n) view, the ``out`` of ``_jacobian_blocks``."""
    jac = np.empty((len(m), sum(m) - len(m)))
    starts = [sum(m[:p]) - p for p in range(len(m) + 1)]     # each player's first column
    return jac, [jac[:, a:b].T for a, b in zip(starts, starts[1:])]


def _jacobian_blocks(payoffs: np.ndarray, blocks, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Payoff and payoff Jacobian on the chart, both from one every-player
    ``_deviations`` sweep, so the payoff is ``total_payoff``'s bit for bit.
    By own-block linearity the derivative of component i along player p's
    chart coordinate j is the payoff difference between the pure
    replacements e_j and e_{m_p}, written in place into ``out``, a
    ``_jacobian_buffer`` (new when None), under the caller's error state.
    """
    pay, devs = _deviations(payoffs, blocks)
    jac, cols = _jacobian_buffer(payoffs.shape[:-1]) if out is None else out
    for dev, col in zip(devs, cols):
        np.subtract(dev[:-1], dev[-1], out=col)
    return pay, jac


@np.errstate(over="ignore", invalid="ignore")   # a non-finite entry is caught by the rank
def payoff_jacobian(g: GameSpec, s: StrategyProfile) -> np.ndarray:
    """Analytic Jacobian of the payoff map on the reduced chart,
    shape (n, N - n)."""
    _require_match(g, s)
    return _jacobian_blocks(g.payoffs, s.blocks)[1]


def _rows(g: GameSpec) -> int:
    """Number of independent payoff components: n, or n - 1 for a zero-sum
    game, whose last component is minus the sum of the others.  Ranks,
    kernels and corrector solves take only these Jacobian rows, as
    ``extract_affine``'s zero-sum reduction does, so no row that is zero
    up to rounding sets a direction."""
    return g.n - g.zero_sum


def generic_rank(g: GameSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> int:
    """Generic Jacobian rank k, the dimension of the payoff image.

    Estimated as the maximum rank over interior sample points: rank is
    lower-semicontinuous, so the generic value is the maximum on a dense
    open set and absolutely continuous sampling misses the lower-rank
    exceptional set almost surely.  Each sample's stream is derived from
    (seed, index), so results do not depend on evaluation order.

    ``samples`` (at most ``MAX_SAMPLES``) is an upper bound: sampling
    stops once k reaches min(rows, N - n), where rows is n, or n - 1 for a
    zero-sum game, since no Jacobian of those rows has a higher rank.  A
    constant game never gets there and takes every sample.  A sample whose
    sweep rounds past the float range is ranked on the payoffs and scale
    times 2^-e, max|T| in [2^(e-1), 2^e): ``_svd``'s exact rescue of sigma_1.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rows = _rows(g)
    k = 0
    for idx in range(samples):
        rng = np.random.default_rng([seed, idx])
        s = random_interior_profile(g, rng)
        jac, scale = payoff_jacobian(g, s)[:rows], g.scale
        if not np.isfinite(jac).all() and scale < np.inf:   # at 2^-e, on a transient copy
            jac = _jacobian_blocks(np.ldexp(g.payoffs, -g._exponent), s.blocks)[1][:rows]
            scale = np.ldexp(scale, -g._exponent)
        k = max(k, numerical_rank(jac, scale)[0])
        if k == min(jac.shape):
            break
    return k


@dataclass(frozen=True)
class FiberReport:
    """Local level-set diagnosis at one profile."""

    point: np.ndarray                # reduced chart coordinates
    jacobian_rank: int
    singular_values: np.ndarray      # min(rows, N - n) values, rows as in generic_rank
    nullspace_basis: np.ndarray      # one orthonormal row per tangent direction
    constancy_residuals: list        # (epsilon, max payoff deviation) pairs
    regular: bool

    @property
    def fiber_dimension(self) -> int:
        return self.nullspace_basis.shape[0]


def _tangent_space(g: GameSpec, s: StrategyProfile, rows: int):
    """Chart point r, payoff there, and rank, singular values and kernel of
    the first ``rows`` Jacobian rows from one ``_svd``.  The payoff and the
    Jacobian come from one sweep at the exact blocks, so the payoff is
    ``total_payoff(g, s)``; rebuilt from r, a zero block entry can gain
    noise rank and the payoff can move by rounding."""
    _require_match(g, s)
    if s.concat().min() < INTERIOR_MIN:
        raise ValueError(f"boundary point: need every coordinate >= {INTERIOR_MIN}")
    with np.errstate(over="ignore", invalid="ignore"):     # caught by the rank
        pay, jac = _jacobian_blocks(g.payoffs, s.blocks)
    rank, svals, _, vt = _svd(jac[:rows], True, g.scale)
    return reduce_profile(s), pay, rank, svals, vt[rank:]


def fiber_report(g: GameSpec, s: StrategyProfile, k_generic: int) -> FiberReport:
    """Rank, nullspace, and payoff-constancy residuals at an interior point,
    on the Jacobian rows ``generic_rank`` uses (n - 1 for a zero-sum game).

    For each nullspace direction v and each probe size eps, the residual is
    the largest payoff-component change between the point and point + eps*v.
    Along true tangent directions the residual is second order in eps.
    The probes are swept in the largest stacks whose first intermediate,
    stack * payoff bytes / m_0, is within max(PROBE_STACK_BYTES, payoff
    bytes), but of at least max(m_0, len(CONSTANCY_EPSILONS)) probes; each
    is its lone sweep bit for bit.
    """
    r, base, rank, svals, basis = _tangent_space(g, s, _rows(g))
    probes = np.concatenate(r + np.multiply.outer(CONSTANCY_EPSILONS, basis))   # eps-major
    dev = np.zeros(len(probes))
    stack = max(g.m[0], len(CONSTANCY_EPSILONS), PROBE_STACK_BYTES * g.m[0] // g.payoffs.nbytes)
    for i in range(0, len(probes), stack):
        dev[i:i + stack] = np.abs(_payoff_reduced(g, probes[i:i + stack]) - base).max(axis=-1)
    worst = np.fmax.reduce(dev.reshape(len(CONSTANCY_EPSILONS), -1), axis=1, initial=0.0)
    residuals = list(zip(CONSTANCY_EPSILONS, worst.tolist()))   # a NaN probe adds nothing
    return FiberReport(point=r, jacobian_rank=rank, singular_values=svals,
                       nullspace_basis=basis, constancy_residuals=residuals,
                       regular=(rank == k_generic))


@dataclass(frozen=True)
class FiberPath:
    """A traced walk inside one level set of the payoff map."""

    points: list                     # reduced chart coordinates, in order
    target_payoff: np.ndarray
    max_payoff_drift: float
    terminated_by: str               # "step_budget" | "boundary" | "corrector_failure"


def _correct(g: GameSpec, r: np.ndarray, target: np.ndarray, tol: float,
             rows: int, buffers) -> tuple[np.ndarray, float, np.ndarray]:
    """Gauss-Newton projection of a chart point back onto the level set:
    the last point, its largest payoff residual over all n components
    (success iff <= tol) and the first ``rows`` Jacobian rows there.  Each
    iteration loads its point into the trace's ``buffers`` by ``_load_chart``,
    writes the payoff and the Jacobian there by one ``_jacobian_blocks``
    call (the last point and Jacobian stay there, so the rows returned are
    a view) and steps by ``_solve`` on those rows.  A diverging step stops
    at the first non-finite Jacobian and fails."""
    flat, blocks, index, out = buffers
    cur = np.asarray(r, dtype=float)
    with np.errstate(all="ignore"):
        for it in range(CORRECTOR_MAX_ITER + 1):
            _load_chart(cur, flat, blocks, index)
            pay, jac = _jacobian_blocks(g.payoffs, blocks, out)
            f = pay - target
            residual = float(np.abs(f).max())
            if residual <= tol or it == CORRECTOR_MAX_ITER or not np.isfinite(jac).all():
                break
            cur = cur + _solve(jac[:rows], -f[:rows], g.scale)[0]
    return cur, residual, jac[:rows]


def trace_fiber(g: GameSpec, s0: StrategyProfile, direction_index: int,
                step: float, max_steps: int, tol: float = TRACE_TOL,
                k_generic: int | None = None) -> FiberPath:
    """Predictor-corrector continuation inside the level set through s0.

    Each step moves by ``step`` along a nullspace direction of the payoff
    Jacobian, then corrects back to the starting payoff value with
    Gauss-Newton until the residual is below ``tol``.  The nullspace is
    recomputed at every accepted point, from the corrector's Jacobian
    there, and the followed direction is the previous tangent projected
    onto the new nullspace and normalized, so the path depends on the
    tangent space, not on the basis ``nullspace`` returns, and keeps its
    orientation on a smooth fiber.  The trace stops when the step budget
    (at most ``MAX_TRACE_STEPS``, as every step may add a point) runs
    out, when a corrected point leaves the interior of the simplex (a
    coordinate below ``INTERIOR_MIN``), or when the corrector fails to
    converge; a step so large that the corrector diverges and a tangent
    whose projection vanishes are ``corrector_failure`` too.

    Nullspaces and corrector solves use the rows of ``generic_rank``: for
    a zero-sum game the first n - 1, as the last is minus their sum and
    would let rounding choose the direction ``direction_index`` picks.
    The residual and the drift are still measured on all n components.

    A start whose rank exceeds ``k_generic`` is rejected; without
    ``k_generic`` no rank is sampled, since no point's rank exceeds the
    generic rank.  A start of lower rank (a critical point of the map) is
    allowed: the nullspace is larger there, but every direction can still
    seed the corrector.  The corrector's buffers are built once per trace.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    if max_steps > MAX_TRACE_STEPS:
        raise ValueError(f"at most {MAX_TRACE_STEPS} steps")
    rows = _rows(g)
    r0, target, rank0, _, basis = _tangent_space(g, s0, rows)
    if k_generic is not None and rank0 > k_generic:
        raise ValueError(
            f"irregular start: rank {rank0} at the start point exceeds the "
            f"generic rank {k_generic}")
    if not 0 <= direction_index < basis.shape[0]:
        raise ValueError(
            f"invalid direction: index {direction_index} but the nullspace "
            f"has {basis.shape[0]} directions")
    tangent = basis[direction_index]
    points = [r0]
    drift = 0.0
    terminated = "step_budget"
    flat, blocks, index = _chart_buffer(g.m)      # each corrector evaluation's profile
    buffers = flat, blocks, index, _jacobian_buffer(g.m)
    for _ in range(max_steps):
        predicted = points[-1] + step * tangent
        corrected, residual, jac = _correct(g, predicted, target, tol, rows, buffers)
        if not residual <= tol:     # a NaN residual fails too
            terminated = "corrector_failure"
            break
        if flat.min() < INTERIOR_MIN:
            terminated = "boundary"
            break
        points.append(corrected)
        drift = max(drift, residual)
        basis = nullspace(jac, g.scale)
        tangent = basis.T @ (basis @ tangent)
        norm = math.sqrt(tangent @ tangent)
        if norm < 1e-8:     # no continuation in the new nullspace, an empty one included
            terminated = "corrector_failure"
            break
        tangent = tangent / norm
    return FiberPath(points=points, target_payoff=target,
                     max_payoff_drift=drift, terminated_by=terminated)
