import numpy as np
import pytest

import gamefibers as gf
from helpers import interior_profile, loop_is_jointly_affine


def constant_game():
    payoffs = np.zeros((2, 2, 2))
    payoffs[..., 0] = 5.0
    payoffs[..., 1] = -5.0
    return gf.GameSpec(payoffs)


def test_affinity_fixtures(bar, rps):
    assert gf.is_jointly_affine(bar)
    assert not gf.is_jointly_affine(rps)
    one_strategy = gf.GameSpec(np.full((1, 1, 2), 3.0))
    assert gf.is_jointly_affine(one_strategy)


def test_affinity_matches_loop_oracle():
    for seed in range(15):
        n = 2 + seed % 2
        m = [2 + (seed + j) % 3 for j in range(n)]
        built_affine = gf.random_game(n, m, seed=seed, jointly_affine=True)
        assert gf.is_jointly_affine(built_affine)
        assert loop_is_jointly_affine(built_affine, 1e-9)
        general = gf.random_game(n, m, seed=seed)
        assert gf.is_jointly_affine(general) == loop_is_jointly_affine(general, 1e-9)


def test_affinity_tolerance_bounds_against_loop_oracle():
    # The residual test and the cross-difference oracle bound each other:
    # max|cross| <= 4 * max|residual| and max|residual| <= n(n-1)/2 * max|cross|.
    # A single perturbed entry away from the anchor (all last strategies)
    # moves both maxima by exactly its size, so there the decisions agree.
    rng = np.random.default_rng(1100)
    slack = 1e-12           # rounding in both computations
    fired = {"residual": 0, "cross": 0}
    for seed in range(40):
        n = 2 + seed % 3
        m = [2 + (seed + j) % 3 for j in range(n)]
        payoffs = gf.random_game(n, m, seed=1100 + seed, jointly_affine=True).payoffs.copy()
        size = 10.0 ** rng.uniform(-11.0, -7.0)
        at = tuple(int(rng.integers(mi)) for mi in m)
        single = seed % 2 == 0 and at != tuple(mi - 1 for mi in m)
        if seed % 2:
            payoffs += size * rng.uniform(-1.0, 1.0, size=payoffs.shape)
        else:
            payoffs[at] += size
        g = gf.GameSpec(payoffs)
        for tol in (1e-10, 1e-9, 1e-8):
            affine = gf.is_jointly_affine(g, tol)
            if affine:
                fired["residual"] += 1
                assert loop_is_jointly_affine(g, 4 * tol + slack)
            if loop_is_jointly_affine(g, tol):
                fired["cross"] += 1
                assert gf.is_jointly_affine(g, n * (n - 1) / 2 * tol + slack)
            if single and abs(size - tol) > 1e-3 * tol:
                assert affine == (size <= tol)
    assert min(fired.values()) >= 10


def test_affinity_of_degenerate_shapes():
    for shape in [(0, 2, 2), (2, 0, 2), (2, 3, 0, 3)]:     # an empty strategy set
        g = gf.GameSpec(np.zeros(shape))
        assert gf.is_jointly_affine(g)
        with pytest.raises(ValueError):
            gf.extract_affine(g)
    # three payoff components for two players
    additive = np.arange(2.0)[:, None, None] + np.arange(3.0)[None, :, None] * [1.0, 2.0, 3.0]
    assert gf.is_jointly_affine(gf.GameSpec(additive))
    interacting = additive.copy()
    interacting[0, 0, 2] += 1.0
    assert not gf.is_jointly_affine(gf.GameSpec(interacting))


def test_extract_columns_are_pure_profile_differences():
    for seed in range(12):
        n = 2 + seed % 3
        m = [2 + (seed + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=1200 + seed, zero_sum=seed % 2 == 0,
                           jointly_affine=True)
        rep = gf.extract_affine(g)
        anchor = [mi - 1 for mi in m]
        offset = gf.total_payoff(g, gf.pure_profile(g, anchor))
        assert np.array_equal(rep.offset, offset)
        columns = []
        for p, mi in enumerate(m):
            for j in range(mi - 1):
                moved = anchor[:p] + [j] + anchor[p + 1:]
                columns.append(gf.total_payoff(g, gf.pure_profile(g, moved)) - offset)
        assert np.array_equal(rep.matrix, np.column_stack(columns))
        if seed % 2 == 0:
            reduced = gf.extract_affine(g, use_zero_sum_reduction=True)
            assert np.array_equal(reduced.matrix, rep.matrix[:-1])
            assert np.array_equal(reduced.offset, rep.offset[:-1])


def test_extract_bar_matrices(bar):
    rep = gf.extract_affine(bar, use_zero_sum_reduction=True)
    assert rep.matrix.tolist() == [[1.0, -1.0]]
    assert rep.offset.tolist() == [0.0]
    assert rep.zero_sum_reduced
    full = gf.extract_affine(bar)
    assert full.matrix.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    assert full.offset.tolist() == [0.0, 0.0]


def test_extract_constant_game():
    rep = gf.extract_affine(constant_game())
    assert np.array_equal(rep.matrix, np.zeros((2, 2)))
    assert rep.offset.tolist() == [5.0, -5.0]


def test_extract_errors(rps, bar):
    with pytest.raises(ValueError, match="not jointly affine"):
        gf.extract_affine(rps)
    lopsided = gf.GameSpec(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="not zero-sum"):
        gf.extract_affine(lopsided, use_zero_sum_reduction=True)


def test_bar_level_set_at_zero(bar):
    rep = gf.extract_affine(bar, use_zero_sum_reduction=True)
    ls = gf.affine_level_set(rep, [0.0], g=bar)
    assert ls.dimension == 1
    direction = ls.kernel_basis[0]
    target = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert min(np.abs(direction - target).max(),
               np.abs(direction + target).max()) <= 1e-10
    assert rep.matrix @ ls.base_point == pytest.approx([0.0], abs=1e-12)


def test_bar_level_set_reachability(bar):
    rep = gf.extract_affine(bar, use_zero_sum_reduction=True)
    assert gf.affine_level_set(rep, [2.0], g=bar) is None        # beyond payoff range
    assert gf.affine_level_set(rep, [1.0], g=bar) is not None    # attained at (M, A)
    assert gf.affine_level_set(rep, [1.0 + 1e-4], g=bar) is None
    # without the game, emptiness is decided on the chart alone
    assert gf.affine_level_set(rep, [2.0]) is not None
    full = gf.extract_affine(bar)
    assert gf.affine_level_set(full, [2.0, 2.0]) is None         # inconsistent rows


def test_constant_game_level_set_is_whole_space():
    g = constant_game()
    rep = gf.extract_affine(g)
    ls = gf.affine_level_set(rep, [5.0, -5.0], g=g)
    assert ls.dimension == g.reduced_dim == 2
    assert gf.affine_level_set(rep, [5.0, -4.0], g=g) is None


def test_rank_nullity_and_bounds():
    for seed in range(30):
        n = 2 + seed % 2
        m = [2 + (seed + j) % 3 for j in range(n)]
        zero_sum = seed % 2 == 0
        g = gf.random_game(n, m, seed=300 + seed, zero_sum=zero_sum,
                           jointly_affine=True)
        rep = gf.extract_affine(g, use_zero_sum_reduction=zero_sum)
        rank = rep.rank
        ls = gf.affine_level_set(rep, rep.offset, g=g)
        assert rank + ls.dimension == g.reduced_dim
        bound = (g.num_coords - 2 * n + 1) if zero_sum else (g.num_coords - 2 * n)
        if zero_sum or any(mi >= 3 for mi in m):
            assert ls.dimension >= bound


def test_level_set_membership_and_orthonormality():
    rng = np.random.default_rng(31)
    g = gf.random_game(3, [3, 2, 3], seed=77, jointly_affine=True)
    rep = gf.extract_affine(g)
    y = rep.offset + rep.matrix @ (0.05 * np.ones(g.reduced_dim))
    ls = gf.affine_level_set(rep, y, g=g)
    basis = ls.kernel_basis
    gram = basis @ basis.T
    assert np.abs(gram - np.eye(basis.shape[0])).max() <= 1e-10
    assert np.abs(rep.matrix @ basis.T).max() <= 1e-10
    for _ in range(100):
        coeffs = rng.uniform(-1.0, 1.0, size=ls.dimension)
        point = ls.base_point + coeffs @ basis
        assert np.abs(rep.matrix @ point + rep.offset - y).max() <= 1e-8


def test_level_set_solve_and_kernel_share_one_cutoff():
    # a singular value below the rank cutoff is kernel for the solve too,
    # so the base point does not run off along its own kernel direction
    rep = gf.AffineRepresentation(matrix=np.array([[1.0, 0.0], [0.0, 1e-15]]),
                                  offset=np.zeros(2), zero_sum_reduced=False)
    ls = gf.affine_level_set(rep, [0.0, 1e-9])
    assert ls.base_point.tolist() == [0.0, 0.0]
    assert np.abs(ls.kernel_basis).tolist() == [[0.0, 1.0]]
    assert ls.dimension == 1


def test_level_set_base_and_kernel_from_one_svd(monkeypatch):
    # one decomposition per level set: no separate least-squares solve
    calls = [0]
    svd, lstsq = np.linalg.svd, np.linalg.lstsq

    def counting_svd(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    def counting_lstsq(*args, **kwargs):
        calls[0] += 1
        return lstsq(*args, **kwargs)

    rng = np.random.default_rng(1201)
    for seed in range(18):
        n = 2 + seed % 3
        m = [2 + (seed + j) % 3 for j in range(n)]
        zero_sum = seed % 2 == 0
        g = gf.random_game(n, m, seed=1200 + seed, zero_sum=zero_sum,
                           jointly_affine=True)
        rep = gf.extract_affine(g, use_zero_sum_reduction=zero_sum)
        y = rep.matrix @ gf.reduce_profile(interior_profile(g, rng)) + rep.offset
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        calls[0] = 0
        ls = gf.affine_level_set(rep, y, g=g)
        assert calls[0] == 1
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        base = ls.base_point
        scale = max(1.0, float(np.abs(base).max()))
        assert np.abs(ls.kernel_basis @ base).max(initial=0.0) <= 1e-12 * scale
        residual = np.abs(rep.matrix @ base + rep.offset - y).max()
        assert residual <= gf.affine.LEVEL_SET_RESIDUAL
        assert ls.dimension + rep.rank == g.reduced_dim


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_level_set_rejects_non_finite_payoff_value(bad):
    g = gf.random_game(3, [2, 2, 2], seed=5, jointly_affine=True)
    rep = gf.extract_affine(g)
    with pytest.raises(ValueError, match="must be finite"):
        gf.affine_level_set(rep, [bad, 0.0, 0.0])


def test_agreement_with_payoff_map():
    rng = np.random.default_rng(37)
    for seed in range(10):
        n = 2 + seed % 2
        m = [2 + (seed + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=400 + seed, jointly_affine=True)
        rep = gf.extract_affine(g)
        for _ in range(10):
            s = interior_profile(g, rng)
            predicted = rep.matrix @ gf.reduce_profile(s) + rep.offset
            assert np.abs(predicted - gf.total_payoff(g, s)).max() <= 1e-10


def test_simplex_interval_bar_segment(bar):
    rep = gf.extract_affine(bar, use_zero_sum_reduction=True)
    ls = gf.affine_level_set(rep, [0.0], g=bar)
    lo, hi = gf.simplex_interval(bar, ls.base_point, ls.kernel_basis[0])
    ends = sorted([ls.base_point + lo * ls.kernel_basis[0],
                   ls.base_point + hi * ls.kernel_basis[0]], key=lambda p: p[0])
    assert ends[0] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert ends[1] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_simplex_interval_missing_line(bar):
    # a line at constant x = 2 never meets the square
    assert gf.simplex_interval(bar, np.array([2.0, 0.0]), np.array([0.0, 1.0])) is None
