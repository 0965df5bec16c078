"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints its PASS line only after every assertion in
the criterion has held.
"""

from pathlib import Path

import numpy as np

import gamefibers as gf
from gamefibers.cli import run as cli_run
from gamefibers.games import _blocks_from_reduced, _payoff_reduced
from gamefibers.fibers import _jacobian_blocks
from helpers import fd_jacobian, interior_profile

GOLDEN = Path(__file__).parent / "golden"


def test_criterion_01_rps_payoff_formula(rps):
    rng = np.random.default_rng(101)
    for _ in range(1000):
        s = gf.random_interior_profile(rps, rng)
        (a, b, c), (x, y, z) = s.blocks
        closed_form = -a * y + a * z + b * x - b * z + c * y - c * x
        assert abs(gf.expected_payoff(rps, s, 0) - closed_form) <= 1e-12
    uniform = gf.uniform_profile(rps)
    assert gf.expected_payoff(rps, uniform, 0) == 0.0
    assert gf.expected_payoff(rps, uniform, 1) == 0.0
    print("CRITERION 1 (rps payoff formula): PASS")


def test_criterion_02_bar_game(bar):
    for x in np.linspace(0.0, 1.0, 21):
        for y in np.linspace(0.0, 1.0, 21):
            s = gf.StrategyProfile([[x, 1.0 - x], [y, 1.0 - y]])
            pay = gf.total_payoff(bar, s)
            assert abs(pay[0] - (x - y)) <= 1e-12
            assert abs(pay[1] - (y - x)) <= 1e-12
    assert gf.pure_equilibria(bar) == [(0, 0)]   # (M, M) only
    rep = gf.extract_affine(bar, use_zero_sum_reduction=True)
    level = gf.affine_level_set(rep, [0.0], g=bar)
    assert level.dimension == 1
    diagonal = np.array([1.0, 1.0]) / np.sqrt(2.0)
    basis = level.kernel_basis[0]
    assert min(np.abs(basis - diagonal).max(), np.abs(basis + diagonal).max()) <= 1e-10
    print("CRITERION 2 (bar game fixtures): PASS")


def test_criterion_03_affine_dimension_bound():
    rng = np.random.default_rng(103)
    for case in range(100):
        n = int(rng.choice([2, 3]))
        m = [int(rng.choice([2, 3, 4])) for _ in range(n)]
        zero_sum = case % 2 == 0
        g = gf.random_game(n, m, seed=2000 + case, zero_sum=zero_sum,
                           jointly_affine=True)
        rep = gf.extract_affine(g, use_zero_sum_reduction=zero_sum)
        nullity = rep.matrix.shape[1] - rep.rank
        big_n = g.num_coords
        if zero_sum:
            assert nullity >= big_n - 2 * n + 1
        if any(mi >= 3 for mi in m):
            assert nullity >= big_n - 2 * n
    print("CRITERION 3 (affine level-set dimension bound): PASS")


def test_criterion_04_generic_rank_bounds():
    rng = np.random.default_rng(104)
    for case in range(100):
        n = int(rng.choice([2, 3]))
        m = [int(rng.choice([2, 3, 4])) for _ in range(n)]
        zero_sum = case % 2 == 0
        g = gf.random_game(n, m, seed=3000 + case, zero_sum=zero_sum)
        k = gf.generic_rank(g, samples=32, seed=1)
        assert k <= n
        if zero_sum:
            assert k <= n - 1
        if zero_sum or any(mi >= 3 for mi in m):
            assert g.reduced_dim - k >= 1
    print("CRITERION 4 (generic rank bounds): PASS")


def test_criterion_05_tangent_constancy():
    for gi in range(20):
        n = 2 if gi % 2 == 0 else 3
        m = [2 + (gi + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=500 + gi)
        k = gf.generic_rank(g, samples=32, seed=1)
        rng = np.random.default_rng([77, gi])
        accepted = 0
        tries = 0
        while accepted < 20:
            tries += 1
            assert tries < 400, "could not find 20 regular interior points"
            s = gf.random_interior_profile(g, rng)
            if min(float(b.min()) for b in s.blocks) < 1e-3:
                continue
            report = gf.fiber_report(g, s, k)
            if not report.regular:
                continue
            accepted += 1
            r = report.point
            base = _payoff_reduced(g, r)
            residual_at = {}
            for v in report.nullspace_basis:
                res = [float(np.abs(_payoff_reduced(g, r + e * v) - base).max())
                       for e in (1e-2, 1e-3, 1e-4)]
                assert 50.0 <= res[0] / res[1] <= 200.0
                assert 50.0 <= res[1] / res[2] <= 200.0
                residual_at[tuple(v)] = res[1]
            jac = _jacobian_blocks(g.payoffs, _blocks_from_reduced(g.m, r))[1]
            u = np.random.default_rng([88, gi, accepted]).standard_normal(n)
            w = jac.T @ u
            w /= np.linalg.norm(w)
            first_order = float(np.abs(_payoff_reduced(g, r + 1e-3 * w) - base).max())
            assert first_order >= 10.0 * max(residual_at.values())
    print("CRITERION 5 (second-order tangent constancy): PASS")


def test_criterion_06_jacobian_oracle():
    rng = np.random.default_rng(106)
    for case in range(200):
        n = 2 + case % 2
        m = [2 + (case + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=4000 + case, zero_sum=(case % 3 == 0))
        s = interior_profile(g, rng)
        difference = np.abs(gf.payoff_jacobian(g, s) - fd_jacobian(g, s, h=1e-5))
        assert difference.max() <= 1e-6
    print("CRITERION 6 (analytic jacobian vs finite differences): PASS")


def test_criterion_07_fiber_tracing(rps, bar):
    start = gf.uniform_profile(rps)
    directions = gf.fiber_report(rps, start, k_generic=1).fiber_dimension
    assert directions >= 3
    for d in range(directions):
        path = gf.trace_fiber(rps, start, d, step=0.02, max_steps=100)
        assert path.max_payoff_drift <= 1e-8
        for point in path.points:
            assert np.abs(_payoff_reduced(rps, point)).max() <= 1e-8
    bar_path = gf.trace_fiber(bar, gf.embed_profile(bar, [0.5, 0.5]), 0,
                              step=0.05, max_steps=200)
    assert bar_path.max_payoff_drift <= 1e-14
    assert bar_path.terminated_by == "boundary"
    print("CRITERION 7 (fiber tracing on fixtures): PASS")


def test_criterion_08_equilibrium_suite(rps, bar):
    reports = gf.support_enumeration(rps, eps=1e-10)
    assert len(reports) == 1
    assert reports[0].epsilon <= 1e-10
    for block in reports[0].profile.blocks:
        assert np.abs(block - 1.0 / 3.0).max() <= 1e-9
    for g in (rps, bar):
        found = gf.find_equilibrium(g, seed=0, max_iter=10_000, eps=1e-6)
        assert found.converged and found.epsilon <= 1e-6

    pairs = 0
    gi = 0
    while pairs < 200:
        n, m = [(2, (2, 2)), (2, (3, 3)), (2, (2, 3)), (2, (4, 3))][gi % 4]
        g = gf.random_game(n, list(m), seed=900 + gi)
        gi += 1
        found = gf.support_enumeration(g, eps=1e-12)
        if not found:
            continue
        s = found[0].profile
        displacement = max(np.abs(a - b).max()
                           for a, b in zip(gf.nash_map(g, s).blocks, s.blocks))
        assert displacement <= 1e-10
        assert gf.verify_equilibrium(g, s, 1e-8).converged
        drift = gf.random_interior_profile(g, np.random.default_rng([55, gi]))
        perturbed = gf.StrategyProfile([0.999 * b + 0.001 * d
                                        for b, d in zip(s.blocks, drift.blocks)])
        displacement = max(np.abs(a - b).max()
                           for a, b in zip(gf.nash_map(g, perturbed).blocks,
                                           perturbed.blocks))
        assert displacement > 1e-10
        assert not gf.verify_equilibrium(g, perturbed, 1e-8).converged
        pairs += 2
    print("CRITERION 8 (equilibrium suite): PASS")


def test_criterion_09_pure_deviation_sufficiency():
    rng = np.random.default_rng(109)
    for case in range(500):
        n = 2 + case % 2
        m = [2 + (case + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=5000 + case)
        s = gf.random_interior_profile(g, rng)
        player = case % n
        gap = gf.best_response_gap(g, s, player)
        base = gf.expected_payoff(g, s, player)
        for _ in range(100):
            sigma = rng.exponential(size=m[player])
            sigma /= sigma.sum()
            gain = gf.expected_payoff(
                g, gf.unilateral_replace(s, player, sigma), player) - base
            assert gain <= gap + 1e-10
    print("CRITERION 9 (pure deviations dominate mixed ones): PASS")


def test_criterion_10_io_round_trips(rps, bar):
    for g in (rps, bar):
        doc = gf.write_game(g)
        assert gf.parse_game(doc) == g
        assert gf.write_game(gf.parse_game(doc)) == doc
    for case in range(100):
        n = 2 + case % 2
        m = [2 + (case + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=6000 + case, zero_sum=(case % 2 == 0),
                           jointly_affine=(case % 3 == 0))
        doc = gf.write_game(g)
        parsed = gf.parse_game(doc)
        assert parsed == g
        assert gf.write_game(parsed) == doc
    for name in ("bar", "rps"):
        doc = gf.write_game(gf.builtin_game(name))
        code, out, err = cli_run(["analyze"], read_stdin=lambda d=doc: d)
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"analyze_{name}.txt").read_bytes()
    print("CRITERION 10 (document and report round trips): PASS")
