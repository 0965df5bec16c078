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

from dataclasses import dataclass

import numpy as np

from .games import (
    GameSpec,
    StrategyProfile,
    _blocks_from_reduced,
    _deviations,
    _payoff_reduced,
    _require_match,
    random_interior_profile,
    reduce_profile,
)

DEFAULT_SAMPLES = 64
INTERIOR_MIN = 1e-6
CONSTANCY_EPSILONS = (1e-2, 1e-3, 1e-4)
CORRECTOR_MAX_ITER = 20
TRACE_TOL = 1e-10                # largest payoff residual the corrector accepts

# Relative singular-value cutoff: sigma is negligible below
# max(rows, cols) * 2**-46 times the largest singular value.
RANK_RTOL_EXPONENT = -46


def _svd(mat, vectors: bool) -> tuple[int, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Rank, singular values and, with ``vectors``, U and V^T of a finite
    matrix, all from one SVD: the one place the cutoff is applied."""
    a = np.atleast_2d(np.asarray(mat, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValueError("rank needs a finite matrix")
    if vectors:
        u, s, vt = np.linalg.svd(a)
    else:
        u, s, vt = None, np.linalg.svd(a, compute_uv=False), None
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > max(a.shape) * 2.0 ** RANK_RTOL_EXPONENT * smax))
    return rank, s, u, vt


def _solve(mat, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solution of mat @ x = rhs and the kernel
    basis of mat from one ``_svd``, so the solve drops exactly the
    directions the kernel keeps."""
    rank, s, u, vt = _svd(mat, vectors=True)
    x = vt[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank])
    return x, vt[rank:]


def numerical_rank(mat) -> tuple[int, np.ndarray]:
    """Rank of a matrix as the number of singular values above the relative
    cutoff; returns (rank, singular_values).  The zero matrix has rank 0."""
    rank, s, _, _ = _svd(mat, vectors=False)
    return rank, s


def nullspace(mat) -> np.ndarray:
    """Orthonormal basis for the kernel, one vector per row."""
    rank, _, _, vt = _svd(mat, vectors=True)
    return vt[rank:]


def _jacobian_blocks(payoffs: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Payoff and payoff Jacobian on the chart, from one ``_deviations``
    sweep.

    The payoff is the last player's deviations weighted by the last block,
    exactly as ``_fold`` has it.  By own-block linearity the derivative of
    component i along player p's chart coordinate j is the payoff
    difference between the pure replacements e_j and e_{m_p}.
    """
    devs = _deviations(payoffs, blocks)
    jac = np.concatenate([(dev[:-1] - dev[-1]).T for dev in devs], axis=1)
    return blocks[-1] @ devs[-1], jac


def _jacobian_reduced(g: GameSpec, r) -> np.ndarray:
    return _jacobian_blocks(g.payoffs, _blocks_from_reduced(g.m, r))[1]


def payoff_jacobian(g: GameSpec, s: StrategyProfile) -> np.ndarray:
    """Analytic Jacobian of the payoff map on the reduced chart,
    shape (n, N - n)."""
    _require_match(g, s)
    return _jacobian_blocks(g.payoffs, s.blocks)[1]


def generic_rank(g: GameSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> int:
    """Generic Jacobian rank k, the dimension of the payoff image.

    Estimated as the maximum rank over interior sample points: rank is
    lower-semicontinuous, so the generic value is the maximum on a dense
    open set and absolutely continuous sampling misses the lower-rank
    exceptional set almost surely.  Each sample's stream is derived from
    (seed, index), so results do not depend on evaluation order.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    k = 0
    for idx in range(samples):
        rng = np.random.default_rng([seed, idx])
        s = random_interior_profile(g, rng)
        rank, _ = numerical_rank(payoff_jacobian(g, s))
        k = max(k, rank)
    return k


@dataclass(frozen=True)
class FiberReport:
    """Local level-set diagnosis at one profile."""

    point: np.ndarray                # reduced chart coordinates
    jacobian_rank: int
    singular_values: np.ndarray
    nullspace_basis: np.ndarray      # one orthonormal row per tangent direction
    constancy_residuals: list        # (epsilon, max payoff deviation) pairs
    regular: bool

    @property
    def fiber_dimension(self) -> int:
        return self.nullspace_basis.shape[0]


def _min_coordinate(blocks) -> float:
    return min(float(b.min()) for b in blocks)


def fiber_report(g: GameSpec, s: StrategyProfile, k_generic: int) -> FiberReport:
    """Rank, nullspace, and payoff-constancy residuals at an interior point.

    For each nullspace direction v and each probe size eps, the residual is
    the largest payoff-component change between the point and point + eps*v.
    Along true tangent directions the residual is second order in eps.
    """
    _require_match(g, s)
    if _min_coordinate(s.blocks) < INTERIOR_MIN:
        raise ValueError(
            f"boundary point: fiber reports need every coordinate >= {INTERIOR_MIN}")
    r = reduce_profile(s)
    # Jacobian from the exact blocks: rebuilding them from r can inject
    # rounding crumbs that turn an exactly-zero Jacobian into noise rank.
    jac = _jacobian_blocks(g.payoffs, s.blocks)[1]
    rank, svals, _, vt = _svd(jac, vectors=True)
    basis = vt[rank:]
    base = _payoff_reduced(g, r)
    residuals = []
    for eps in CONSTANCY_EPSILONS:
        worst = 0.0
        for v in basis:
            dev = np.abs(_payoff_reduced(g, r + eps * v) - base).max()
            worst = max(worst, float(dev))
        residuals.append((float(eps), worst))
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


def _correct(g: GameSpec, r: np.ndarray, target: np.ndarray,
             tol: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Gauss-Newton projection of a chart point back onto the level set:
    the last point, its largest payoff residual (success iff <= tol) and
    the Jacobian there.  Each iteration takes the payoff and the Jacobian
    from one ``_jacobian_blocks`` call and steps by ``_solve``.  A
    diverging step stops at the first non-finite Jacobian and fails."""
    cur = np.asarray(r, dtype=float)
    with np.errstate(all="ignore"):
        for it in range(CORRECTOR_MAX_ITER + 1):
            pay, jac = _jacobian_blocks(g.payoffs, _blocks_from_reduced(g.m, cur))
            f = pay - target
            residual = float(np.abs(f).max())
            if residual <= tol or it == CORRECTOR_MAX_ITER or not np.isfinite(jac).all():
                break
            cur = cur + _solve(jac, -f)[0]
    return cur, residual, jac


def trace_fiber(g: GameSpec, s0: StrategyProfile, direction_index: int,
                step: float, max_steps: int, tol: float = TRACE_TOL,
                k_generic: int | None = None) -> FiberPath:
    """Predictor-corrector continuation inside the level set through s0.

    Each step moves by ``step`` along a nullspace direction of the payoff
    Jacobian, then corrects back to the starting payoff value with
    Gauss-Newton until the residual is below ``tol``.  The nullspace is
    recomputed at every accepted point, from the corrector's Jacobian
    there, and the followed direction is the basis vector closest to the
    previous tangent, sign-aligned, which keeps the walk from flipping
    orientation on a smooth fiber.  The trace stops when the step budget
    runs out, when a corrected point leaves the interior of the simplex
    (a coordinate below ``INTERIOR_MIN``), or when the corrector fails to
    converge; a step so large that the corrector diverges is a
    ``corrector_failure`` too.

    Where the Jacobian has a singular value at rounding level (the n-th
    one of a zero-sum game), the nullspace basis, and so the direction
    ``direction_index`` picks, is fixed only by rounding and can change
    with any ulp of the Jacobian.

    A start whose rank exceeds the generic rank is rejected.  A start of
    lower rank (a critical point of the map) is allowed: the nullspace is
    larger there, but every direction can still seed the corrector.
    """
    _require_match(g, s0)
    if _min_coordinate(s0.blocks) < INTERIOR_MIN:
        raise ValueError(
            f"boundary point: tracing needs every coordinate >= {INTERIOR_MIN}")
    if k_generic is None:
        k_generic = generic_rank(g)
    r0 = reduce_profile(s0)
    rank0, _, _, vt = _svd(_jacobian_blocks(g.payoffs, s0.blocks)[1], vectors=True)
    basis = vt[rank0:]
    if rank0 > k_generic:
        raise ValueError(
            f"irregular start: rank {rank0} at the start point exceeds the "
            f"generic rank {k_generic}")
    if not 0 <= direction_index < basis.shape[0]:
        raise ValueError(
            f"invalid direction: index {direction_index} but the nullspace "
            f"has {basis.shape[0]} directions")
    target = _payoff_reduced(g, r0)
    tangent = basis[direction_index]
    points = [r0]
    drift = 0.0
    terminated = "step_budget"
    for _ in range(max_steps):
        predicted = points[-1] + step * tangent
        corrected, residual, jac = _correct(g, predicted, target, tol)
        if not residual <= tol:     # a NaN residual fails too
            terminated = "corrector_failure"
            break
        blocks = _blocks_from_reduced(g.m, corrected)
        if _min_coordinate(blocks) < INTERIOR_MIN:
            terminated = "boundary"
            break
        points.append(corrected)
        drift = max(drift, residual)
        basis = nullspace(jac)
        if basis.shape[0] == 0:
            terminated = "corrector_failure"
            break
        dots = basis @ tangent
        pick = int(np.argmax(np.abs(dots)))
        if abs(dots[pick]) < 1e-8:
            # tangent has no continuation in the new nullspace
            terminated = "corrector_failure"
            break
        tangent = basis[pick] if dots[pick] > 0 else -basis[pick]
    return FiberPath(points=points, target_payoff=target,
                     max_payoff_drift=drift, terminated_by=terminated)
