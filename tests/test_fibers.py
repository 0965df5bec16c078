import numpy as np
import pytest

import gamefibers as gf
from gamefibers import fibers
from helpers import fd_jacobian, interior_profile


def test_bar_jacobian_constant(bar):
    expected = [[1.0, -1.0], [-1.0, 1.0]]
    rng = np.random.default_rng(2)
    for s in [gf.uniform_profile(bar), interior_profile(bar, rng),
              gf.embed_profile(bar, [0.9, 0.1])]:
        assert gf.payoff_jacobian(bar, s).tolist() == expected


def test_rps_uniform_is_critical(rps):
    # every pure strategy ties against uniform, so all partials vanish
    jac = gf.payoff_jacobian(rps, gf.uniform_profile(rps))
    assert np.array_equal(jac, np.zeros((2, 4)))
    rank, _ = gf.numerical_rank(jac)
    assert rank == 0


def test_rps_jacobian_rows_opposite(rps):
    rng = np.random.default_rng(19)
    s = interior_profile(rps, rng)
    jac = gf.payoff_jacobian(rps, s)
    assert np.abs(jac[0] + jac[1]).max() <= 1e-12
    rank, _ = gf.numerical_rank(jac)
    assert rank == 1


def test_constant_game_jacobian_zero():
    g = gf.GameSpec(np.full((2, 3, 2), 4.0))
    jac = gf.payoff_jacobian(g, gf.uniform_profile(g))
    assert np.array_equal(jac, np.zeros((2, 3)))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(41)
    for seed in range(50):
        n = 2 + seed % 2
        m = [2 + (seed + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=600 + seed, zero_sum=(seed % 3 == 0))
        s = interior_profile(g, rng)
        assert np.abs(gf.payoff_jacobian(g, s) - fd_jacobian(g, s)).max() <= 1e-6


def test_numerical_rank_examples():
    rank, svals = gf.numerical_rank([[1.0, -1.0], [-1.0, 1.0]])
    assert rank == 1
    assert svals == pytest.approx([2.0, 0.0], abs=1e-12)
    assert gf.numerical_rank(np.eye(3))[0] == 3
    rank, svals = gf.numerical_rank(np.zeros((2, 4)))
    assert rank == 0
    assert np.array_equal(svals, np.zeros(2))
    with pytest.raises(ValueError):
        gf.numerical_rank([[np.nan, 0.0]])


def test_nullspace_orthonormal_and_annihilating():
    rng = np.random.default_rng(43)
    for _ in range(20):
        mat = rng.standard_normal((3, 6)) @ np.diag(rng.uniform(0.5, 2.0, 6))
        basis = gf.nullspace(mat)
        rank, _ = gf.numerical_rank(mat)
        assert basis.shape == (6 - rank, 6)
        assert np.abs(basis @ basis.T - np.eye(6 - rank)).max() <= 1e-12
        assert np.abs(mat @ basis.T).max() <= 1e-12


def test_generic_rank_fixtures(bar, rps):
    assert gf.generic_rank(bar) == 1
    assert gf.generic_rank(bar, samples=1) == 1   # constant Jacobian
    assert gf.generic_rank(rps) == 1
    constant = gf.GameSpec(np.full((2, 2, 2), 7.0))
    assert gf.generic_rank(constant) == 0
    assert gf.generic_rank(rps, samples=16, seed=5) == gf.generic_rank(rps, samples=16, seed=5)


def test_generic_rank_bounds_sample():
    for seed in range(20):
        n = 2 + seed % 2
        m = [2 + (seed + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=700 + seed)
        assert gf.generic_rank(g, samples=16) <= n
        gz = gf.random_game(n, m, seed=700 + seed, zero_sum=True)
        assert gf.generic_rank(gz, samples=16) <= n - 1


def test_fiber_report_bar(bar):
    s = gf.embed_profile(bar, [0.5, 0.5])
    report = gf.fiber_report(bar, s, k_generic=1)
    assert report.jacobian_rank == 1
    assert report.regular
    assert report.fiber_dimension == 1
    direction = report.nullspace_basis[0]
    target = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert min(np.abs(direction - target).max(),
               np.abs(direction + target).max()) <= 1e-12
    for _, residual in report.constancy_residuals:
        assert residual <= 1e-15   # payoff is affine along the fiber


def test_fiber_report_rps_uniform_critical(rps):
    report = gf.fiber_report(rps, gf.uniform_profile(rps), k_generic=1)
    assert report.jacobian_rank == 0
    assert not report.regular
    assert report.fiber_dimension == 4
    # single-player directions stay in the fiber exactly at the critical point
    for _, residual in report.constancy_residuals:
        assert residual <= 1e-15


def test_fiber_report_rps_regular_point(rps):
    rng = np.random.default_rng(47)
    s = interior_profile(rps, rng)
    report = gf.fiber_report(rps, s, k_generic=1)
    assert report.jacobian_rank == 1
    assert report.regular
    assert report.fiber_dimension == 3 == rps.reduced_dim - 1
    residuals = dict(report.constancy_residuals)
    assert 50.0 <= residuals[1e-2] / residuals[1e-3] <= 200.0
    assert 50.0 <= residuals[1e-3] / residuals[1e-4] <= 200.0


def test_fiber_report_constant_game():
    g = gf.GameSpec(np.full((2, 3, 2), 4.0))
    report = gf.fiber_report(g, gf.uniform_profile(g), k_generic=0)
    assert report.jacobian_rank == 0
    assert report.regular
    assert report.fiber_dimension == g.reduced_dim == 3
    assert all(residual == 0.0 for _, residual in report.constancy_residuals)


def test_fiber_report_dimension_count():
    rng = np.random.default_rng(53)
    for seed in range(15):
        n = 2 + seed % 2
        m = [2 + (seed + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=800 + seed, zero_sum=(seed % 2 == 0))
        k = gf.generic_rank(g, samples=16)
        report = gf.fiber_report(g, interior_profile(g, rng), k)
        assert report.jacobian_rank + report.fiber_dimension == g.reduced_dim


def test_report_and_trace_start_make_one_svd(monkeypatch):
    # rank, singular values and kernel come from one decomposition
    calls = [0]
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    rng = np.random.default_rng(61)
    for seed in range(12):
        n = 2 + seed % 3
        m = [2 + (seed + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=900 + seed, zero_sum=(seed % 3 == 1),
                           jointly_affine=(seed % 3 == 2))
        k = gf.generic_rank(g, samples=16)
        s = interior_profile(g, rng)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        calls[0] = 0
        report = gf.fiber_report(g, s, k)
        assert calls[0] == 1
        calls[0] = 0
        gf.trace_fiber(g, s, 0, step=0.01, max_steps=0, k_generic=k)
        assert calls[0] == 1
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert report.jacobian_rank + report.fiber_dimension == g.reduced_dim
        assert report.singular_values.shape == (min(n, g.reduced_dim),)


def test_fiber_report_boundary_rejected(bar):
    with pytest.raises(ValueError, match="boundary point"):
        gf.fiber_report(bar, gf.pure_profile(bar, (0, 0)), k_generic=1)


def test_trace_bar_straight_path(bar):
    start = gf.embed_profile(bar, [0.5, 0.5])
    path = gf.trace_fiber(bar, start, 0, step=0.05, max_steps=200)
    assert path.terminated_by == "boundary"
    assert path.max_payoff_drift <= 1e-14
    pts = np.array(path.points)
    assert np.abs(pts[:, 0] - pts[:, 1]).max() <= 1e-12   # stays on x = y
    assert len(pts) > 10


def test_trace_rps_from_uniform_all_directions(rps):
    start = gf.uniform_profile(rps)
    report = gf.fiber_report(rps, start, k_generic=1)
    assert report.fiber_dimension >= 3
    for d in range(report.fiber_dimension):
        path = gf.trace_fiber(rps, start, d, step=0.02, max_steps=100)
        assert path.max_payoff_drift <= 1e-8
        for point in path.points:
            assert np.abs(gf.total_payoff(rps, gf.embed_profile(rps, point))).max() <= 1e-8


def test_trace_zero_step(bar):
    start = gf.embed_profile(bar, [0.5, 0.5])
    path = gf.trace_fiber(bar, start, 0, step=0.0, max_steps=5)
    assert path.terminated_by == "step_budget"
    assert path.max_payoff_drift == 0.0
    assert len(path.points) == 6
    assert all(np.array_equal(p, path.points[0]) for p in path.points)


def test_trace_reuses_the_corrector_jacobian(monkeypatch):
    # the nullspace at an accepted point comes from the corrector's last
    # Jacobian: one deviation sweep per corrector evaluation, plus the start
    g = gf.random_game(3, [3, 3, 3], seed=3)
    start = gf.uniform_profile(g)
    k = gf.generic_rank(g, samples=8)
    counts = {"sweeps": 0, "evaluations": 0}
    inside = [False]
    sweep, rebuild, correct = fibers._deviations, fibers._blocks_from_reduced, fibers._correct

    def counting_sweep(payoffs, blocks):
        counts["sweeps"] += 1
        return sweep(payoffs, blocks)

    def counting_rebuild(m, r):
        counts["evaluations"] += inside[0]
        return rebuild(m, r)

    def flagged_correct(*args):
        inside[0] = True
        try:
            return correct(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(fibers, "_deviations", counting_sweep)
    monkeypatch.setattr(fibers, "_blocks_from_reduced", counting_rebuild)
    monkeypatch.setattr(fibers, "_correct", flagged_correct)
    path = gf.trace_fiber(g, start, 0, step=0.01, max_steps=10, k_generic=k)
    assert path.terminated_by == "step_budget" and len(path.points) == 11
    assert counts["evaluations"] >= 10
    assert counts["sweeps"] == counts["evaluations"] + 1


def test_diverging_step_is_a_corrector_failure(bar, rps):
    # the corrector overflows far outside the simplex; the trace stops
    # cleanly instead of raising from the linear solve
    g = gf.random_game(3, [3, 3, 3], seed=3)
    for game in (g, bar, rps):
        path = gf.trace_fiber(game, gf.uniform_profile(game), 0, step=1e300,
                              max_steps=5)
        assert path.terminated_by == "corrector_failure"
        assert len(path.points) == 1


def test_trace_errors(bar, rps):
    start = gf.embed_profile(bar, [0.5, 0.5])
    with pytest.raises(ValueError, match="invalid direction"):
        gf.trace_fiber(bar, start, 5, step=0.05, max_steps=10)
    with pytest.raises(ValueError, match="boundary point"):
        gf.trace_fiber(bar, gf.pure_profile(bar, (0, 0)), 0, step=0.05, max_steps=10)
    rng = np.random.default_rng(59)
    with pytest.raises(ValueError, match="irregular start"):
        gf.trace_fiber(rps, interior_profile(rps, rng), 0, step=0.02,
                       max_steps=10, k_generic=0)


def test_path_points_stay_valid(rps):
    rng = np.random.default_rng(61)
    start = interior_profile(rps, rng, min_coord=0.05)
    path = gf.trace_fiber(rps, start, 1, step=0.03, max_steps=50, tol=1e-11)
    for point in path.points:
        s = gf.embed_profile(rps, point)   # raises if off-simplex
        assert np.abs(gf.total_payoff(rps, s) - path.target_payoff).max() <= 1e-10


def test_consistency_with_affine_analysis():
    for seed in range(10):
        n = 2 + seed % 2
        m = [2 + (seed + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=850 + seed, jointly_affine=True)
        rep = gf.extract_affine(g)
        k = gf.generic_rank(g, samples=16)
        assert k == rep.rank
        rng = np.random.default_rng([850, seed])
        report = gf.fiber_report(g, interior_profile(g, rng), k)
        kernel = gf.nullspace(rep.matrix)
        assert report.nullspace_basis.shape == kernel.shape
        # both bases span the same subspace: projection residual ~ 0
        proj = report.nullspace_basis @ kernel.T @ kernel
        assert np.abs(proj - report.nullspace_basis).max() <= 1e-8
