import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gamefibers as gf
from gamefibers import affine, cli, fibers, games
from helpers import (
    fd_jacobian,
    interior_profile,
    loop_constancy_residuals,
    loop_generic_rank,
    loop_trace_fiber,
)


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


@pytest.mark.parametrize("scale", [np.nan, -1.0, np.inf, -np.inf])
@pytest.mark.parametrize("call", [gf.numerical_rank, gf.nullspace])
def test_rank_rejects_a_nan_infinite_or_negative_scale(call, scale):
    # each would fall back to the sigma_1 rule (nan, -1) or count no rank
    # at all (inf), where scale 1.0 gives [[1e-300]] rank 0
    assert gf.numerical_rank([[1e-300]], 1.0)[0] == 0
    with pytest.raises(ValueError, match="scale must be finite and non-negative"):
        call([[1e-300]], scale)
    with pytest.raises(ValueError, match="rank needs a finite matrix"):
        call([[np.inf]], scale)


def test_nullspace_orthonormal_and_annihilating():
    rng = np.random.default_rng(43)
    for _ in range(20):
        mat = rng.standard_normal((3, 6)) @ np.diag(rng.uniform(0.5, 2.0, 6))
        basis = gf.nullspace(mat)
        rank, _ = gf.numerical_rank(mat)
        assert basis.shape == (6 - rank, 6)
        assert np.abs(basis @ basis.T - np.eye(6 - rank)).max() <= 1e-12
        assert np.abs(mat @ basis.T).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), rows=st.integers(1, 7), cols=st.integers(1, 7),
       generic=st.integers(0, 4), scale=st.sampled_from([0.0, 1.0, 1e3]))
def test_stacked_solve_matches_each_lone_solve(seed, rows, cols, generic, scale):
    # each matrix of a stack gets its own rank, and the solve and V^T of a
    # lone matrix bit for bit, whatever the ranks of its neighbours
    rng = np.random.default_rng(seed)
    generic_stack = rng.standard_normal((generic, rows, cols))
    repeated = rng.standard_normal((rows, cols))
    repeated[-1] = repeated[0]
    low_rank = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    mixed = np.concatenate([generic_stack, [np.zeros((rows, cols)), repeated, low_rank]])
    mixed = mixed[rng.permutation(len(mixed))]
    rhs = rng.standard_normal(rows)
    for stack in (mixed, generic_stack):     # several ranks, and one (or none)
        x, rank, vt = fibers._solve(stack, rhs, scale)
        assert x.shape == (len(stack), cols) and rank.shape == (len(stack),)
        for mat, x_i, rank_i, vt_i in zip(stack, x, rank, vt):
            x_lone, rank_lone, vt_lone = fibers._solve(mat, rhs, scale)
            assert rank_i == rank_lone == gf.numerical_rank(mat, scale)[0]
            assert x_i.tobytes() == x_lone.tobytes()
            assert vt_i.tobytes() == vt_lone.tobytes()


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


def seeded_games(count, seed):
    """Generic, zero-sum, jointly affine and affine zero-sum games of 2-4
    players, cycling through the kinds."""
    rng = np.random.default_rng(seed)
    games = []
    for i in range(count):
        n = int(rng.integers(2, 5))
        m = [int(rng.integers(2, 5 if n < 4 else 4)) for _ in range(n)]
        games.append(gf.random_game(n, m, seed=seed + i, zero_sum=i % 4 in (1, 3),
                                    jointly_affine=i % 4 >= 2))
    return games


def test_generic_rank_matches_full_sample_loop():
    # stopping at the rank bound and dropping a zero-sum game's dependent
    # row give the rank every sample of the full Jacobian gives
    for g in seeded_games(24, 1200):
        for scale in (1.0, 1e-12, 1e12):
            scaled = gf.GameSpec(g.payoffs * scale)
            assert gf.generic_rank(scaled) == loop_generic_rank(scaled)
            assert (gf.generic_rank(scaled, samples=5, seed=9)
                    == loop_generic_rank(scaled, samples=5, seed=9))


def test_generic_rank_stops_at_the_rank_bound(monkeypatch):
    calls = [0]
    rank = fibers.numerical_rank

    def counting_rank(mat, scale):
        calls[0] += 1
        return rank(mat, scale)

    monkeypatch.setattr(fibers, "numerical_rank", counting_rank)
    for g in seeded_games(12, 1300):
        calls[0] = 0
        k = gf.generic_rank(g)
        assert calls[0] == 1
        assert k == min(g.n - gf.is_zero_sum(g), g.reduced_dim)
    constant = gf.GameSpec(np.full((2, 3, 2), 4.0))
    for samples in (1, 10, 64):
        calls[0] = 0
        assert gf.generic_rank(constant, samples=samples) == 0
        assert calls[0] == samples


def test_generic_rank_sample_limit(rps):
    assert gf.generic_rank(rps, samples=fibers.MAX_SAMPLES) == 1
    with pytest.raises(ValueError, match="at most 4096 samples"):
        gf.generic_rank(rps, samples=fibers.MAX_SAMPLES + 1)


def test_generic_rank_rejects_bad_arguments(rps):
    with pytest.raises(ValueError, match="need at least one sample"):
        gf.generic_rank(rps, samples=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        gf.generic_rank(rps, seed=-1)


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), zero_sum=st.booleans(),
       m=st.integers(2, 4).flatmap(lambda n: st.lists(st.integers(2, 4), min_size=n,
                                                      max_size=n)))
@example(seed=0, zero_sum=False, m=[2, 2])    # rank 2 on a 2-dimensional chart: d = 0
@example(seed=0, zero_sum=True, m=[3, 3])
@example(seed=0, zero_sum=False, m=[2, 4, 4])   # m_0 < 3: stacks of 3 cross probe sizes
def test_fiber_report_residuals_equal_the_probe_by_probe_loop(seed, zero_sum, m):
    # in one stack at the default cap, and at a zero cap in stacks of
    # max(m_0, 3), each crossing probe sizes where the basis is short
    g = gf.random_game(len(m), m, seed=seed, zero_sum=zero_sum)
    s = interior_profile(g, np.random.default_rng(seed))
    k = gf.generic_rank(g, samples=8)
    for cap in (fibers.PROBE_STACK_BYTES, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fibers, "PROBE_STACK_BYTES", cap)
            report = gf.fiber_report(g, s, k)
        assert report.constancy_residuals == loop_constancy_residuals(g, s,
                                                                      report.nullspace_basis)


def test_fiber_report_probe_stacks_keep_their_memory_cap(monkeypatch):
    # the first intermediate of a stack, stack * payoff bytes / m_0, stays
    # within max(PROBE_STACK_BYTES, payoff bytes) on a game whose tensor is past the cap
    g = gf.random_game(6, [8] * 6, seed=0)
    stacks = []
    payoff = fibers._payoff_reduced

    def recording(game, r):
        stacks.append(len(r))
        return payoff(game, r)

    monkeypatch.setattr(fibers, "_payoff_reduced", recording)
    report = gf.fiber_report(g, gf.uniform_profile(g), 6)
    assert sum(stacks) == len(fibers.CONSTANCY_EPSILONS) * report.fiber_dimension
    cap = max(fibers.PROBE_STACK_BYTES, g.payoffs.nbytes)
    assert g.payoffs.nbytes > fibers.PROBE_STACK_BYTES
    assert all(stack * g.payoffs.nbytes / g.m[0] <= cap for stack in stacks)


def test_fiber_report_without_chart_coordinates():
    # every player has one strategy: no direction, no probe, zero residuals
    for shape in [(1, 1), (1, 1, 2), (1, 1, 1, 3)]:
        g = gf.GameSpec(np.arange(np.prod(shape), dtype=float).reshape(shape))
        report = gf.fiber_report(g, gf.uniform_profile(g), 1)
        assert report.constancy_residuals == [(eps, 0.0) for eps in fibers.CONSTANCY_EPSILONS]


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
        assert report.singular_values.shape == (min(n - gf.is_zero_sum(g), g.reduced_dim),)


def test_near_zero_sum_report_is_regular():
    # a last payoff off by 1e-11 still decides zero-sum, so the report
    # ranks the same n - 1 rows as generic_rank instead of counting the
    # perturbation as rank
    for n, m, seed in ((3, 3, 0), (3, 4, 1), (4, 3, 2)):
        g = gf.random_game(n, [m] * n, seed, zero_sum=True)
        payoffs = g.payoffs.copy()
        payoffs[..., -1] += 1e-11 * np.random.default_rng(seed).uniform(
            -1.0, 1.0, size=payoffs.shape[:-1])
        g = gf.GameSpec(payoffs)
        assert gf.is_zero_sum(g)
        k = gf.generic_rank(g)
        report = gf.fiber_report(g, gf.uniform_profile(g), k)
        assert report.regular
        assert report.fiber_dimension == g.reduced_dim - k


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), zero_sum=st.booleans(),
       jointly_affine=st.booleans(), exponent=st.floats(-12.0, 12.0))
# an LP with absolute tolerances calls this scaled game's level set empty
@example(seed=19735, zero_sum=False, jointly_affine=True, exponent=-8.9765625)
def test_fiber_report_does_not_depend_on_the_payoff_scale(seed, zero_sum, jointly_affine,
                                                          exponent):
    n = 2 + seed % 3
    g = gf.random_game(n, [2 + (seed + j) % 3 for j in range(n)], seed=seed,
                       zero_sum=zero_sum, jointly_affine=jointly_affine)
    scaled = gf.GameSpec(10.0 ** exponent * g.payoffs)
    s = interior_profile(g, np.random.default_rng(seed), min_coord=0.05)
    k = gf.generic_rank(g, samples=16)
    assert gf.generic_rank(scaled, samples=16) == k
    report, report_scaled = gf.fiber_report(g, s, k), gf.fiber_report(scaled, s, k)
    assert report_scaled.jacobian_rank == report.jacobian_rank
    assert report_scaled.fiber_dimension == report.fiber_dimension
    assert report_scaled.regular == report.regular
    gap = np.abs(report_scaled.nullspace_basis - report.nullspace_basis).max(initial=0.0)
    assert gap <= 1e-9
    assert gf.is_jointly_affine(scaled) == gf.is_jointly_affine(g) == jointly_affine
    if jointly_affine:
        level_sets = []
        for game in (g, scaled):
            rep = gf.extract_affine(game, use_zero_sum_reduction=zero_sum)
            y = gf.total_payoff(game, gf.uniform_profile(game))[:rep.matrix.shape[0]]
            level = gf.affine_level_set(rep, y, g=game)
            level_sets.append((rep.rank, None if level is None else level.dimension))
        assert level_sets[1] == level_sets[0]


@pytest.mark.parametrize("value", [4.0, 7.0, -7.0, 1e-300, 3e200])
def test_constant_game_has_rank_zero_at_any_value(value):
    # rounding crumbs of an all-but-zero Jacobian fall below the rank floor
    g = gf.GameSpec(np.full((2, 3, 2), value))
    assert gf.generic_rank(g) == 0
    for idx in range(8):
        s = gf.random_interior_profile(g, np.random.default_rng([0, idx]))
        assert gf.fiber_report(g, s, 0).jacobian_rank == 0


@pytest.mark.parametrize("name", ["bar", "rps"])
def test_generic_rank_holds_when_sigma_1_passes_the_float_range(name):
    # bar times 1.7e308 has finite Jacobians whose sigma_1 overflows to inf;
    # a cutoff of inf counted rank 0 there
    g = gf.builtin_game(name)
    ranks = [gf.generic_rank(gf.GameSpec(g.payoffs * factor))
             for factor in (1.7e308, 1.0, 5e-324 * 4)]
    assert ranks == [gf.generic_rank(g)] * 3
    rank, svals = gf.numerical_rank([[1.7e308, 1.7e308], [1.7e308, 1.7e308]])
    assert rank == 1 and svals[0] == np.inf


def test_generic_rank_answers_where_a_sweep_passes_the_float_range():
    # a sample's sweep rounds past max float, so its Jacobian holds inf or
    # inf - inf; the sample is ranked on the payoffs times 2^-e, as exact
    # as the same game scaled down by that power of two
    gains = np.zeros((2, 2, 2))
    gains[..., 0] = [[1.7e308, -1.7e308], [-1.7e308, 1.7e308]]
    for payoffs, k in ((np.broadcast_to([1.7e308, np.finfo(float).max], (2, 2, 2)), 0),
                       (gains, 1)):
        g = gf.GameSpec(payoffs)
        s = gf.random_interior_profile(g, np.random.default_rng([0, 2]))     # generic_rank's third
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(fibers._jacobian_blocks(g.payoffs, s.blocks)[1]).all()
        assert gf.generic_rank(g) == gf.generic_rank(gf.GameSpec(np.ldexp(payoffs, -1024))) == k


def test_zero_sum_is_decided_once_per_game(monkeypatch):
    calls = [0]
    decide = games.is_zero_sum

    def counting(g, *args):
        calls[0] += 1
        return decide(g, *args)

    for module in (games, fibers, affine, cli):
        if hasattr(module, "is_zero_sum"):
            monkeypatch.setattr(module, "is_zero_sum", counting)
    source = gf.random_game(3, [3, 3, 3], seed=4, zero_sum=True, jointly_affine=True)
    for _ in range(2):
        g = gf.GameSpec(source.payoffs)
        calls[0] = 0
        k = gf.generic_rank(g)
        s = gf.uniform_profile(g)
        gf.fiber_report(g, s, k)
        gf.trace_fiber(g, s, 0, 0.01, 3, k_generic=k)
        gf.extract_affine(g, use_zero_sum_reduction=True)
        assert calls[0] == 1
    calls[0] = 0
    code, out, _ = cli.run(["analyze"], read_stdin=lambda: gf.write_game(source))
    assert code == 0 and b"zero-sum: yes" in out and b"affine rank" in out
    assert calls[0] == 1


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


@pytest.mark.xfail(strict=True, reason="TRACE_TOL is an absolute payoff residual, so the "
                   "corrector fails on payoffs scaled by 2^34")
def test_trace_at_the_default_tol_does_not_depend_on_the_payoff_scale(bar, rps):
    # a power-of-two scale is exact, so at the default tol the trace should
    # not change: bar gives 29 points to the boundary at scales 2^-30 to
    # 2^20 and rps 17 at scale 1, but both stop after 1 point at 2^34
    for g, s0 in ((bar, gf.StrategyProfile([[0.3, 0.7], [0.6, 0.4]])),
                  (rps, gf.uniform_profile(rps))):
        path = gf.trace_fiber(g, s0, 0, step=0.02, max_steps=100)
        scaled = gf.trace_fiber(gf.GameSpec(g.payoffs * 2.0 ** 34), s0, 0, step=0.02,
                                max_steps=100)
        assert (len(scaled.points), scaled.terminated_by) == (len(path.points),
                                                              path.terminated_by)


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


@pytest.mark.parametrize("n, m, seed", [(3, [3] * 3, 0), (3, [3] * 3, 1), (4, [3] * 4, 0),
                                         (2, [3, 3], 0), (3, [5] * 3, 0), (4, [6] * 4, 1)])
def test_trace_target_is_the_start_payoff(n, m, seed):
    # the target comes from the start's own sweep at the exact blocks, not
    # from blocks rebuilt from chart coordinates
    g = gf.random_game(n, m, seed)
    s0 = gf.uniform_profile(g)
    path = gf.trace_fiber(g, s0, 0, step=0.01, max_steps=1)
    assert np.array_equal(path.target_payoff, gf.total_payoff(g, s0))


def test_trace_matches_the_lone_piece_loop():
    # every point, the drift and the ending bit for bit those of a loop that
    # rebuilds its blocks and Jacobian afresh at each corrector evaluation
    endings = set()
    for n, m in ((2, 3), (3, 4), (4, 6), (5, 5), (4, 10)):
        for kind in ("generic", "affine", "zero-sum"):
            g = gf.random_game(n, [m] * n, seed=n + m, zero_sum=kind == "zero-sum",
                               jointly_affine=kind == "affine")
            start = gf.uniform_profile(g)
            for step, max_steps in ((0.001, 50), (0.02, 100)):
                path = gf.trace_fiber(g, start, 0, step, max_steps)
                points, drift, ending = loop_trace_fiber(g, start, 0, step, max_steps)
                assert path.terminated_by == ending
                assert path.max_payoff_drift == drift
                assert len(path.points) == len(points)
                assert all(map(np.array_equal, path.points, points))
                endings.add(ending)
    assert {"boundary", "step_budget"} <= endings


def test_trace_reuses_the_corrector_jacobian(monkeypatch):
    # the nullspace at an accepted point comes from the corrector's last
    # Jacobian: one deviation sweep per corrector evaluation, plus the start
    g = gf.random_game(3, [3, 3, 3], seed=3)
    start = gf.uniform_profile(g)
    k = gf.generic_rank(g, samples=8)
    counts = {"sweeps": 0, "evaluations": 0}
    inside = [False]
    sweep, jacobian, correct = fibers._deviations, fibers._jacobian_blocks, fibers._correct

    def counting_sweep(payoffs, blocks):
        counts["sweeps"] += 1
        return sweep(payoffs, blocks)

    def counting_jacobian(payoffs, blocks, *out):
        counts["evaluations"] += inside[0]
        return jacobian(payoffs, blocks, *out)

    def flagged_correct(*args):
        inside[0] = True
        try:
            return correct(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(fibers, "_deviations", counting_sweep)
    monkeypatch.setattr(fibers, "_jacobian_blocks", counting_jacobian)
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


def test_trace_rejects_negative_max_steps(bar):
    with pytest.raises(ValueError, match="max_steps must be non-negative"):
        gf.trace_fiber(bar, gf.uniform_profile(bar), 0, step=0.05, max_steps=-1)


@pytest.mark.parametrize("max_steps", [fibers.MAX_TRACE_STEPS + 1, 10 ** 12])
def test_trace_rejects_a_step_budget_past_the_cap(bar, max_steps):
    # every step may add a point, so an unbounded budget is an unbounded run
    with pytest.raises(ValueError, match=f"at most {fibers.MAX_TRACE_STEPS} steps"):
        gf.trace_fiber(bar, gf.uniform_profile(bar), 0, step=0.0, max_steps=max_steps)


def test_trace_without_k_generic_samples_no_rank(rps, monkeypatch):
    calls = []
    monkeypatch.setattr(fibers, "generic_rank", lambda *a, **k: calls.append(a))
    rng = np.random.default_rng(59)
    path = gf.trace_fiber(rps, interior_profile(rps, rng), 0, step=0.02, max_steps=3)
    assert calls == [] and len(path.points) > 1


def test_zero_sum_trace_does_not_depend_on_the_payoff_scale():
    # the dependent last row of a zero-sum Jacobian is left out, so no
    # rounding-level singular value picks the direction: T and 3T trace
    # the same path
    rng = np.random.default_rng(71)
    for seed in range(30):
        n = 2 + seed % 3
        m = [3] * n if n < 4 else [2] * n
        g = gf.random_game(n, m, seed=1400 + seed, zero_sum=True,
                           jointly_affine=seed % 5 == 0)
        tripled = gf.GameSpec(3.0 * g.payoffs)
        s = interior_profile(g, rng, min_coord=0.05)
        k = gf.generic_rank(g)
        path = gf.trace_fiber(g, s, 0, step=0.01, max_steps=20, k_generic=k)
        path3 = gf.trace_fiber(tripled, s, 0, step=0.01, max_steps=20, k_generic=k)
        assert path.terminated_by == path3.terminated_by
        assert len(path.points) == len(path3.points) > 1
        assert np.abs(np.array(path.points) - np.array(path3.points)).max() <= 1e-9
        assert path.max_payoff_drift <= 1e-10


def test_trace_does_not_depend_on_the_kernel_basis(monkeypatch):
    # the tangent is the previous one projected onto the kernel, so an
    # orthogonal mix of the basis rows, with the same span, keeps the path
    nullspace = fibers.nullspace
    rng = np.random.default_rng(83)

    def mixed_nullspace(mat, scale=0.0):
        basis = nullspace(mat, scale)
        q, _ = np.linalg.qr(rng.standard_normal((basis.shape[0],) * 2))
        return q @ basis

    for n, m, seed in ((4, 6, 1), (4, 6, 2), (3, 4, 0), (3, 4, 3), (5, 5, 0)):
        g = gf.random_game(n, [m] * n, seed)
        start = gf.uniform_profile(g)
        path = gf.trace_fiber(g, start, 0, step=0.001, max_steps=30)
        monkeypatch.setattr(fibers, "nullspace", mixed_nullspace)
        mixed = gf.trace_fiber(g, start, 0, step=0.001, max_steps=30)
        monkeypatch.setattr(fibers, "nullspace", nullspace)
        assert mixed.terminated_by == path.terminated_by == "step_budget"
        assert len(mixed.points) == len(path.points) == 31
        assert np.abs(np.array(mixed.points) - np.array(path.points)).max() <= 1e-12


def test_trace_stops_where_the_tangent_leaves_the_kernel(rps, monkeypatch):
    # an empty kernel at the first accepted point projects the tangent to
    # zero: no continuation, so the trace ends there
    monkeypatch.setattr(fibers, "nullspace", lambda mat, scale=0.0: np.empty((0, mat.shape[1])))
    path = gf.trace_fiber(rps, gf.uniform_profile(rps), 0, step=0.01, max_steps=10)
    assert path.terminated_by == "corrector_failure"
    assert len(path.points) == 2


def test_trace_turns_smoothly():
    # on a smooth fiber consecutive chords of a small step are nearly parallel
    for seed in (1, 2):
        g = gf.random_game(4, [6] * 4, seed)
        path = gf.trace_fiber(g, gf.uniform_profile(g), 0, step=0.001, max_steps=50)
        assert path.terminated_by == "step_budget"
        chords = np.diff(np.array(path.points), axis=0)
        chords /= np.linalg.norm(chords, axis=1, keepdims=True)
        cosines = np.clip(np.sum(chords[1:] * chords[:-1], axis=1), -1.0, 1.0)
        assert np.degrees(np.arccos(cosines)).max() < 1.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), kind=st.sampled_from(["generic", "zero-sum", "affine"]),
       exponent=st.floats(-12.0, 12.0))
def test_trace_does_not_depend_on_the_payoff_scale(seed, kind, exponent):
    a = 10.0 ** exponent
    for n, m in ((3, 4), (4, 3)):
        g = gf.random_game(n, [m] * n, seed, zero_sum=kind == "zero-sum",
                           jointly_affine=kind == "affine")
        start = gf.uniform_profile(g)
        path = gf.trace_fiber(g, start, 0, step=0.005, max_steps=30)
        # TRACE_TOL is an absolute payoff residual by design, so it scales with a
        scaled = gf.trace_fiber(gf.GameSpec(a * g.payoffs), start, 0, step=0.005,
                                max_steps=30, tol=fibers.TRACE_TOL * a)
        assert scaled.terminated_by == path.terminated_by
        assert len(scaled.points) == len(path.points)
        assert np.abs(np.array(scaled.points) - np.array(path.points)).max() <= 1e-12


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
