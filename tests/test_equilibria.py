import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gamefibers as gf
from gamefibers import cli
from gamefibers import equilibria
from gamefibers.equilibria import (
    SEARCH_EPS,
    _answers,
    _enumerable,
    _improvement,
    _indifference_weights,
    _offsets,
    _subgames,
    _supports,
    _two_mixers,
    _vertex_gaps,
)
from helpers import (
    class_dominance,
    interior_profile,
    loop_embedded_subgame_equilibria,
    loop_find_equilibrium,
    loop_nash_map,
    loop_subgame_stack,
    loop_support_enumeration,
    loop_vertex_gaps,
    two_sided_support_enumeration,
)


def matching_pennies():
    agree = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return gf.GameSpec(np.stack([agree, -agree], axis=-1) + 0.0)


def constant_game():
    return gf.GameSpec(np.full((2, 2, 2), 3.0))


def test_best_response_gap_fixtures(bar, rps):
    both_m = gf.pure_profile(bar, (0, 0))
    assert gf.best_response_gap(bar, both_m, 0) == 0.0
    assert gf.best_response_gap(bar, both_m, 1) == 0.0
    both_a = gf.pure_profile(bar, (1, 1))
    assert gf.best_response_gap(bar, both_a, 0) == 1.0   # switching to M wins 1
    uniform = gf.uniform_profile(rps)
    assert gf.best_response_gap(rps, uniform, 0) == 0.0
    assert gf.best_response_gap(rps, uniform, 1) == 0.0
    with pytest.raises(IndexError):
        gf.best_response_gap(bar, both_m, 2)


def test_verify_equilibrium(bar):
    report = gf.verify_equilibrium(bar, gf.pure_profile(bar, (0, 0)), eps=0.0)
    assert report.converged
    assert report.epsilon == 0.0
    report = gf.verify_equilibrium(bar, gf.pure_profile(bar, (1, 1)), eps=1e-6)
    assert not report.converged
    assert report.epsilon == 1.0
    assert report.epsilon == report.gaps.max()
    report = gf.verify_equilibrium(constant_game(), gf.uniform_profile(constant_game()), eps=0.0)
    assert report.converged and report.epsilon == 0.0


def test_verify_equilibrium_calls_a_nan_gap_unconverged():
    # at the float range a raw gain would be inf - inf; on the normalized
    # payoffs player 1's gain is about 1, past the float range in payoff units
    payoffs = np.stack([[[0.0, 1.0], [0.0, 1.0]], [[-1.0, 1.0], [1.0, 1.0]]], axis=-1)
    g = gf.GameSpec(payoffs * 1.7976931348623157e308)
    assert gf.validate_game(g) == []
    report = gf.verify_equilibrium(g, gf.StrategyProfile([[0.5000000000000001, 0.5], [1, 0]]),
                                   SEARCH_EPS)
    assert report.gaps.tolist() == [0.0, np.inf] and report.epsilon == np.inf
    assert not report.converged


def test_improvement_gains_use_the_exact_total_payoff():
    # the payoff is read from the last player's deviations; it must equal
    # total_payoff bit for bit, so every gain matches the direct formula
    rng = np.random.default_rng(17)
    for seed in range(60):
        n = 2 + seed % 3
        g = gf.random_game(n, [2 + (seed + j) % 3 for j in range(n)], seed=seed)
        s = gf.random_interior_profile(g, rng)
        pay = gf.total_payoff(g, s)
        expected = [np.maximum(0.0, gf.deviation_payoffs(g, s, i)[:, i] - pay[i])
                    for i in range(n)]
        gains, maxima, gap, _ = _improvement(g, s.concat())
        at = _offsets(g.m)
        assert gains.shape == (at[-1],)
        assert all(np.array_equal(gains[a:b], e)
                   for a, b, e in zip(at[:-1], at[1:], expected, strict=True))
        assert np.array_equal(maxima, [phi.max() for phi in expected])
        assert gap == max(float(phi.max()) for phi in expected)
        # a flat stack (2, 3, N) of this profile, vertices, the uniform
        # profile and more draws gives each slice the lone call's gains,
        # maxima and epsilon bit for bit
        extra = np.random.default_rng([17, seed])
        profiles = [s, gf.uniform_profile(g), gf.pure_profile(g, [0] * n),
                    gf.pure_profile(g, [k - 1 for k in g.m]),
                    *(gf.random_interior_profile(g, extra) for _ in range(2))]
        stack = np.stack([p.concat() for p in profiles]).reshape(2, 3, at[-1])
        gains, maxima, gap, _ = _improvement(g, stack)
        assert gains.shape == stack.shape and maxima.shape == (2, 3, n)
        for k, p in enumerate(profiles):
            lone_gains, lone_maxima, lone_gap, _ = _improvement(g, p.concat())
            assert gains[divmod(k, 3)].tobytes() == lone_gains.tobytes()
            assert maxima[divmod(k, 3)].tobytes() == lone_maxima.tobytes()
            assert gap[divmod(k, 3)].tobytes() == np.float64(lone_gap).tobytes()


def test_pure_equilibria(bar, rps):
    assert gf.pure_equilibria(bar) == [(0, 0)]
    assert gf.pure_equilibria(rps) == []
    assert gf.pure_equilibria(constant_game()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_pure_equilibria_lexicographic_order():
    g = constant_game()
    assert gf.pure_equilibria(g) == sorted(gf.pure_equilibria(g))


def vertex_gap_corpus():
    """Random, zero-sum and jointly-affine games, integer payoffs in
    [-2, 2] (many ties), and games with one-strategy players."""
    rng = np.random.default_rng(29)
    games = [gf.builtin_game("bar"), gf.builtin_game("rps"), constant_game()]
    for k in range(30):
        n = 2 + k % 3
        m = [2 + (k + j) % 3 for j in range(n)]
        games.append(gf.random_game(n, m, seed=k, zero_sum=k % 3 == 1,
                                    jointly_affine=k % 3 == 2))
        m = [1 + int(rng.integers(0, 4)) for _ in range(1 + k % 4)]
        games.append(gf.GameSpec(rng.integers(-2, 3, size=(*m, len(m))).astype(float)))
    return games


def test_vertex_gaps_match_the_loop_and_verify():
    for g in vertex_gap_corpus():
        gaps = _vertex_gaps(g)
        assert gaps.shape == g.m
        assert np.array_equal(gaps, loop_vertex_gaps(g))
        for idx in np.ndindex(g.m):
            report = gf.verify_equilibrium(g, gf.pure_profile(g, idx), 0.0)
            assert gaps[idx] == report.epsilon
        assert gf.pure_equilibria(g) == [idx for idx in np.ndindex(g.m) if gaps[idx] == 0.0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), ties=st.booleans())
def test_search_is_never_worse_than_the_best_vertex(seed, ties):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    m = [2 + int(rng.integers(0, 3)) for _ in range(n)]
    if ties:
        g = gf.GameSpec(rng.integers(-2, 3, size=(*m, n)).astype(float))
    else:
        g = gf.random_game(n, m, seed=seed)
    report = gf.find_equilibrium(g, seed=seed, max_iter=50, restarts=1)
    assert report.epsilon <= loop_vertex_gaps(g).min()
    pure = gf.pure_equilibria(g)
    if pure:
        exact = gf.find_equilibrium(g, eps=0.0, max_iter=50, restarts=1)
        assert exact.converged and exact.epsilon == 0.0
        assert exact.profile == gf.pure_profile(g, pure[0])


@pytest.mark.parametrize("n, m, max_iter", [(5, 6, 10_000), (4, 3, 100)])
def test_search_returns_the_pure_equilibrium_of_random_game_seed_1(n, m, max_iter):
    # the damped iteration alone stalls near these games' pure equilibria
    g = gf.random_game(n, [m] * n, 1)
    report = gf.find_equilibrium(g, seed=0, max_iter=max_iter)
    assert report.converged and report.epsilon == 0.0
    assert report.profile == gf.pure_profile(g, gf.pure_equilibria(g)[0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m1=st.integers(1, 6), m2=st.integers(1, 6),
       integer=st.booleans(), eps=st.sampled_from([0.0, 1e-10, 1e-6]))
def test_search_answers_from_support_enumeration(seed, m1, m2, integer, eps):
    # max_iter=0: the damped iteration cannot make up for a missing answer
    rng = np.random.default_rng(seed)
    payoffs = (rng.integers(-2, 3, size=(m1, m2, 2)).astype(float) if integer
               else rng.standard_normal((m1, m2, 2)))
    g = gf.GameSpec(payoffs)
    found = gf.support_enumeration(g, eps)
    report = gf.find_equilibrium(g, eps=eps, max_iter=0)
    if found:
        best = found[int(np.argmin([r.epsilon for r in found]))]
        assert report.converged and report.epsilon <= best.epsilon
        if loop_vertex_gaps(g).min() > eps:
            assert report.profile == best.profile


def test_search_answers_a_game_the_iteration_misses():
    # rps with one payoff set to about 0: the damped iteration alone spends
    # its whole budget here and ends at epsilon 7e-2
    payoffs = gf.builtin_game("rps").payoffs.copy()
    payoffs[0, 1, 0] = 5e-324
    g = gf.GameSpec(payoffs)
    report = gf.find_equilibrium(g)
    assert report.converged and report.epsilon <= 1e-15
    assert report.profile == gf.support_enumeration(g, SEARCH_EPS)[0].profile
    code, out, err = cli.run(["equilibria"], read_stdin=lambda: gf.write_game(g))
    assert (code, err) == (0, "")
    assert " converged=yes " in out.decode().splitlines()[-1]


@pytest.mark.parametrize("n, m, seed, zero_sum", [
    (3, [2, 3, 2], 7116, False), (3, [2, 3, 2], 7117, True), (4, [2, 2, 2, 2], 7120, True),
    (4, [4, 4, 4, 4], 3, False)])
def test_search_answers_small_games_from_two_player_subgames(n, m, seed, zero_sum):
    # no vertex is within eps and the damped loop misses all four (epsilon
    # 3e-3 to 5e-2); two players mixing against the others' pure strategies
    # give an equilibrium in a few ms
    g = gf.random_game(n, m, seed, zero_sum=zero_sum)
    assert _vertex_gaps(g).min() > SEARCH_EPS
    code, out, err = cli.run(["equilibria"], read_stdin=lambda: gf.write_game(g))
    assert (code, err) == (0, "")
    assert " converged=yes " in out.decode().splitlines()[-1]


def two_mixer_corpus():
    """Generic and zero-sum games of 3 and 4 players with 2 to 4
    strategies, and none with a vertex within ``SEARCH_EPS``."""
    games = []
    for n, m in ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3)):
        for seed in range(40):
            g = gf.random_game(n, [m] * n, seed, zero_sum=seed % 3 == 1)
            if _vertex_gaps(g).min() > SEARCH_EPS:
                games.append(g)
    return games


def test_two_mixers_answer_from_the_first_class_that_holds_an_equilibrium():
    # the oracle enumerates every two-player subgame on its own with the
    # public support_enumeration and embeds its reports; the stage's profile
    # must be one of those of the first class, in the stage's order, that
    # holds an equilibrium of the whole game, and None when no class does
    answered = 0
    for g in two_mixer_corpus():
        found = loop_embedded_subgame_equilibria(g, SEARCH_EPS)
        report = _two_mixers(g, SEARCH_EPS)
        if not found:
            assert report is None
            continue
        first = found[min(found)]
        answered += 1
        assert report is not None and report.converged
        assert same_report(report, gf.verify_equilibrium(g, report.profile, SEARCH_EPS))
        assert min(np.abs(report.profile.concat() - other).max() for other in first) <= 1e-9
    assert answered >= 60


# games whose search reaches the damped loop: no vertex within SEARCH_EPS,
# no two-mixer class answers the 3-player ones, and 7x7 is past the cover of
# support enumeration; (n, m, seed) of ``random_game``
LOOP_GAMES = [(3, 3, 45), (3, 3, 54), (3, 3, 86), (3, 2, 16), (3, 2, 35), (2, 7, 2)]


@pytest.mark.parametrize("n, m, seed", LOOP_GAMES[:-1])     # the 3-player ones
def test_search_runs_the_damped_loop_where_no_two_mixer_class_answers(n, m, seed):
    # equilibria where three players mix: the stage finds nothing, and the
    # lockstep loop still gives the start-by-start answer bit for bit
    g = gf.random_game(n, [m] * n, seed)
    assert _vertex_gaps(g).min() > SEARCH_EPS and _two_mixers(g, SEARCH_EPS) is None
    report = gf.find_equilibrium(g, seed=seed, max_iter=40, restarts=3)
    expected = loop_find_equilibrium(g, seed=seed, max_iter=40, restarts=3)
    assert same_report(report, expected)


def two_mixer_games():
    """(n, m, seed) of the first 20 ``random_game`` seeds of each shape with
    no vertex within ``SEARCH_EPS`` and a two-mixer answer at it."""
    found = []
    for n, m in ((3, 2), (3, 3), (4, 2), (3, 4)):
        seed, count = 0, 0
        while count < 20:
            g = gf.random_game(n, [m] * n, seed)
            if _vertex_gaps(g).min() > SEARCH_EPS and _two_mixers(g, SEARCH_EPS) is not None:
                found.append((n, m, seed))
                count += 1
            seed += 1
    return found


@settings(max_examples=30, deadline=None)
@given(game=st.sampled_from(two_mixer_games()), power=st.integers(-60, 60),
       exponent=st.floats(-12.0, 12.0))
def test_two_mixers_do_not_depend_on_the_payoff_scale(game, power, exponent):
    # the solves run on the payoffs normalized by a power of two, so a
    # power-of-two rescaling gives the same profile bit for bit and any
    # other one the same profile up to rounding; the games drawn all reach
    # the stage and get an answer, so no draw is filtered out
    n, m, seed = game
    g = gf.random_game(n, [m] * n, seed)
    base = _two_mixers(g, SEARCH_EPS)
    exact = _two_mixers(gf.GameSpec(np.ldexp(g.payoffs, power)), np.ldexp(SEARCH_EPS, power))
    assert exact.profile.concat().tobytes() == base.profile.concat().tobytes()
    scale = 10.0 ** exponent
    scaled = _two_mixers(gf.GameSpec(scale * g.payoffs), scale * SEARCH_EPS)
    assert scaled.converged
    assert np.abs(scaled.profile.concat() - base.profile.concat()).max() <= 1e-9


def integer_games():
    """Seeded games with integer payoffs in {-2..2}: twenty each of 2
    players with 2 to 4 strategies, and of 3 and 4 players with 2 or 3."""
    rng, games = np.random.default_rng(28), []
    for n, high in ((2, 5), (3, 4), (4, 4)):
        for _ in range(20):
            m = rng.integers(2, high, size=n)
            games.append(gf.GameSpec(rng.integers(-2, 3, size=(*m, n)) * 1.0))
    return games


@pytest.mark.parametrize("power", [-1060, -1050, -1000, 0, 900])
def test_equilibrium_stages_do_not_depend_on_a_power_of_two_scale(power):
    # every stage solves, sweeps and decides on the payoffs times 2^-e, so
    # scaling by 2^power, to subnormal payoffs included, returns the same
    # profiles bit for bit; eps = eps_n 2^e is exact at each scale.  The
    # damped loop steps by payoff-unit gains, so find_equilibrium is checked
    # on the games answered before it
    def profiles(result):
        reports = result if isinstance(result, list) else [result] * (result is not None)
        return [report.profile.concat().tobytes() for report in reports]

    for g in integer_games():
        scaled, e = gf.GameSpec(np.ldexp(g.payoffs, power)), np.frexp(g.scale)[1]
        for eps_n in (0.0, 2.0 ** -10, 2.0 ** -4):
            eps, scaled_eps = np.ldexp(eps_n, e), np.ldexp(eps_n, e + power)
            stage = gf.support_enumeration if g.n == 2 else _two_mixers
            base = profiles(stage(g, eps))
            assert profiles(stage(scaled, scaled_eps)) == base
            if base or _vertex_gaps(g).min() <= eps:
                assert (profiles(gf.find_equilibrium(scaled, max_iter=0, eps=scaled_eps))
                        == profiles(gf.find_equilibrium(g, max_iter=0, eps=eps)))


@pytest.mark.parametrize("n, m, seed", [(5, 5, 2), (6, 4, 0)])
def test_two_mixers_past_the_budget_build_no_stack(n, m, seed, monkeypatch):
    # the first class alone holds 12,500 (5x5^5) or 9,216 (6x4^6) support
    # pairs, past SUPPORT_MAX_PAIRS: the search goes straight to the loop
    built = []
    for name in ("_subgames", "_class_profiles"):
        monkeypatch.setattr(equilibria, name, lambda *args, _name=name: built.append(_name))
    g = gf.random_game(n, [m] * n, seed)
    assert _vertex_gaps(g).min() > SEARCH_EPS
    report = gf.find_equilibrium(g, max_iter=5, restarts=1)
    expected = loop_find_equilibrium(g, max_iter=5, restarts=1)
    assert built == []
    assert same_report(report, expected)


def test_two_mixers_build_each_class_table_when_they_solve_it(monkeypatch):
    # a class builds the stack and table of its own two sizes, so a game
    # answered by its first class builds one, sized (2, 2), and a game that
    # exhausts the stage builds one per class tried
    sizes = []
    subgames = equilibria._subgames
    monkeypatch.setattr(equilibria, "_subgames",
                        lambda *args: sizes.append(args[2:]) or subgames(*args))
    assert _two_mixers(gf.random_game(4, [4] * 4, 3), SEARCH_EPS) is not None
    assert sizes == [(0, 1, 2, 2)]
    sizes.clear()
    assert _two_mixers(gf.random_game(3, [3] * 3, 54), SEARCH_EPS) is None
    assert len(sizes) == len(set(sizes)) == 12


@st.composite
def search_games(draw):
    """Generic games, integer-tie games and subnormal ones, whose gains
    round to a few values, so iterates and starts tie exactly; 2 to 4
    players with at most 3 strategies each, 3 or 4 players with one block
    of 8 to 10 (where a sequential block sum differs from numpy's pairwise
    one), or 2 players past support enumeration's cover.  No vertex is
    within 0.2 max|T|, so the vertex scan answers at no ``eps`` of the test
    below.  The two-mixer classes answer most games of 3 or 4 players at
    ``eps`` > 0, but not generic ones at ``eps`` 0, many subnormal ones or
    those where three players mix, so the iteration still runs on many."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = draw(st.sampled_from(["small", "wide", "past cover"]))
    kind = draw(st.sampled_from(["generic", "integer", "subnormal"]))
    for _ in range(100):
        if shapes == "past cover":
            m = [(7, 7), (2, 11), (11, 2), (3, 10)][rng.integers(4)]
        elif shapes == "wide":
            m = rng.integers(2, 4, size=rng.integers(3, 5))
            m[rng.integers(m.size)] = rng.integers(8, 11)
        else:
            m = rng.integers(1, 4, size=rng.integers(2, 5))
        shape = (*m, len(m))
        if kind == "generic":
            g = gf.GameSpec(rng.standard_normal(shape))
        else:
            unit = 1.0 if kind == "integer" else 5e-324
            g = gf.GameSpec(rng.integers(-2, 3, size=shape) * unit)
        if _vertex_gaps(g).min() > 0.2 * g.scale:
            return g
    assume(False)


@settings(max_examples=120, deadline=None)
@given(g=search_games(), seed=st.integers(0, 10 ** 6), max_iter=st.integers(0, 40),
       rel_eps=st.sampled_from([0.0, 1e-6, 0.02, 0.1, 0.2]), restarts=st.integers(0, 8))
def test_search_matches_the_start_by_start_loop(g, seed, max_iter, rel_eps, restarts):
    # the lockstep starts give the sequential loop's answer bit for bit:
    # starts that converge, starts cut by the budget, and exact ties
    eps = rel_eps * g.scale
    report = gf.find_equilibrium(g, seed=seed, max_iter=max_iter, eps=eps, restarts=restarts)
    expected = loop_find_equilibrium(g, seed=seed, max_iter=max_iter, eps=eps,
                                     restarts=restarts)
    assert report.profile.concat().tobytes() == expected.profile.concat().tobytes()
    assert (report.epsilon, report.converged) == (expected.epsilon, expected.converged)


def test_search_ends_a_start_whose_gains_sum_past_the_float_range():
    # valid payoffs whose gains overflow when summed: the map has no image
    # there, so the start ends instead of stepping off the simplex
    g = gf.GameSpec(np.random.default_rng(25).integers(-1, 2, size=(3, 2, 2, 3)) * 1.7e308)
    assert gf.validate_game(g) == []
    report = gf.find_equilibrium(g, max_iter=100)
    expected = loop_find_equilibrium(g, max_iter=100)
    assert report.profile == expected.profile and report.epsilon == expected.epsilon
    code, out, err = cli.run(["equilibria"], read_stdin=lambda: gf.write_game(g))
    assert (code, err) == (0, "")
    assert out.decode().splitlines()[-1].startswith("search: ")


def test_damped_steps_stay_on_the_simplex():
    # the loop steps without a simplex check: finite gains >= 0 make each
    # step a convex combination of two profiles, so no entry goes negative
    # and a block sum moves off 1 by rounding only
    for n, m, seed in LOOP_GAMES:
        g = gf.random_game(n, [m] * n, seed)
        starts = [gf.uniform_profile(g)] + [
            gf.random_interior_profile(g, np.random.default_rng([0, t])) for t in range(1, 9)]
        cur = np.stack([s.concat() for s in starts])
        for _ in range(2000):
            gains = _improvement(g, cur)[0]
            sums = equilibria._block_sums(gains, g.m)
            assert np.isfinite(sums).all()
            cur = ((1.0 - equilibria.DAMPING) * cur
                   + equilibria.DAMPING * equilibria._mapped(cur, gains, sums, g.m))
            assert cur.min() >= 0.0
            assert np.abs(equilibria._block_sums(cur, g.m) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n, m, seed, zero_sum",
                         [*((n, m, seed, False) for n, m, seed in LOOP_GAMES), (2, 10, 0, True)])
def test_search_matches_the_loop_on_games_that_reach_it(n, m, seed, zero_sum):
    # fixed cases of the lockstep loop against the start-by-start one, whose
    # every iterate is a checked StrategyProfile, at a budget none converges in
    g = gf.random_game(n, [m] * n, seed, zero_sum=zero_sum)
    assert _vertex_gaps(g).min() > SEARCH_EPS and not _enumerable(g)
    assert n == 2 or _two_mixers(g, SEARCH_EPS) is None
    report = gf.find_equilibrium(g, max_iter=200)
    expected = loop_find_equilibrium(g, max_iter=200)
    assert report.profile.concat().tobytes() == expected.profile.concat().tobytes()
    assert np.float64(report.epsilon).tobytes() == np.float64(expected.epsilon).tobytes()
    assert report.converged == expected.converged


def test_support_enumeration_covers_games_by_their_support_pairs():
    for m, covered in (((6, 6), True), ((5, 7), True), ((2, 10), True), ((1, 11), True),
                       ((7, 7), False), ((2, 11), False), ((1, 12), False)):
        assert _enumerable(gf.GameSpec(np.zeros((*m, 2)))) == covered
    # 381 support pairs: support enumeration answers where the iteration missed
    g = gf.random_game(2, [2, 7], 7001)
    code, out, err = cli.run(["equilibria"], read_stdin=lambda: gf.write_game(g))
    lines = out.decode().splitlines()
    assert (code, err) == (0, "")
    assert lines[0].startswith("mixed: ") and " converged=yes " in lines[-1]


def test_nash_map_fixed_points(bar, rps):
    eq = gf.pure_profile(bar, (0, 0))
    assert gf.nash_map(bar, eq) == eq
    uniform = gf.uniform_profile(rps)
    assert gf.nash_map(rps, uniform) == uniform


def test_nash_map_improvement_step(bar):
    both_a = gf.pure_profile(bar, (1, 1))
    mapped = gf.nash_map(bar, both_a)
    # gain of switching to M is 1, so each block becomes (1/2, 1/2)
    assert mapped.blocks[0].tolist() == [0.5, 0.5]
    assert mapped.blocks[1].tolist() == [0.5, 0.5]


def test_nash_map_output_always_valid():
    rng = np.random.default_rng(67)
    for seed in range(20):
        n = 2 + seed % 2
        g = gf.random_game(n, [2 + (seed + j) % 3 for j in range(n)], seed=900 + seed)
        s = interior_profile(g, rng)
        mapped = gf.nash_map(g, s)   # constructor enforces the invariants
        for block in mapped.blocks:
            assert abs(block.sum() - 1.0) <= 1e-12


def test_nash_map_is_the_block_by_block_map():
    # the flat map against the oracle's own arithmetic, blocks of 1 to 9
    rng = np.random.default_rng(71)
    for k in range(200):
        m = rng.integers(1, 10, size=2 + k % 3)
        payoffs = rng.standard_normal((*m, m.size))
        g = gf.GameSpec(np.round(payoffs) if k % 4 == 1 else payoffs)
        s = gf.random_interior_profile(g, rng)
        expected = np.concatenate(loop_nash_map(g, s))
        assert gf.nash_map(g, s).concat().tobytes() == expected.tobytes()


def _overflowing_gains(kind):
    """A game and profile where the gains are inf, or finite (1.25e308
    each) with a sum past the float range."""
    if kind == "inf":
        payoffs = np.zeros((2, 2, 2))
        payoffs[..., 0] = [[1.7e308, -1.7e308], [-1.7e308, 1e308]]
        payoffs[..., 1] = -payoffs[..., 0]
        g = gf.GameSpec(payoffs)
        return g, gf.random_interior_profile(g, np.random.default_rng([0, 2]))
    payoffs = np.zeros((3, 2, 2))
    payoffs[..., 0] = np.array([-1.5e308, 1e308, 1e308])[:, None]
    return gf.GameSpec(payoffs), gf.StrategyProfile([[0.5, 0.25, 0.25], [0.5, 0.5]])


@pytest.mark.parametrize("kind", ["inf", "finite"])
def test_nash_map_rejects_gains_that_sum_past_the_float_range(kind):
    # one clear error instead of inf/inf or an overflowing sum
    g, s = _overflowing_gains(kind)
    assert _improvement(g, s.concat())[2] == (np.inf if kind == "inf" else 1.25e308)
    with pytest.raises(ValueError, match="block 0: the payoff gains sum past the float range"):
        gf.nash_map(g, s)


def test_find_equilibrium_fixtures(bar, rps):
    report = gf.find_equilibrium(rps, seed=0, eps=1e-6)
    assert report.converged and report.epsilon <= 1e-6
    for block in report.profile.blocks:
        assert block == pytest.approx([1 / 3] * 3, abs=1e-6)
    report = gf.find_equilibrium(bar, seed=0, eps=1e-6)
    assert report.converged and report.epsilon <= 1e-6
    assert report.profile.blocks[0] == pytest.approx([1.0, 0.0], abs=1e-6)
    report = gf.find_equilibrium(constant_game(), seed=0, eps=0.0)
    assert report.converged and report.epsilon == 0.0


def test_find_equilibrium_deterministic():
    g = gf.random_game(2, [3, 3], seed=123)
    a = gf.find_equilibrium(g, seed=4)
    b = gf.find_equilibrium(g, seed=4)
    assert a.profile == b.profile and a.epsilon == b.epsilon


def test_find_equilibrium_reports_honestly():
    # the returned flag must match a fresh verification
    for seed in range(5):
        g = gf.random_game(3, [2, 2, 2], seed=950 + seed)
        report = gf.find_equilibrium(g, seed=1, max_iter=2000, eps=1e-6, restarts=2)
        check = gf.verify_equilibrium(g, report.profile, 1e-6)
        assert report.epsilon == check.epsilon
        assert report.converged == (report.epsilon <= 1e-6)


def test_find_equilibrium_rejects_negative_budgets(bar):
    for kwargs in ({"max_iter": -1}, {"restarts": -1}, {"seed": -1}):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            gf.find_equilibrium(bar, **kwargs)


@pytest.mark.parametrize("eps", [np.nan, -1e-300, -np.inf])
def test_equilibria_reject_a_nan_or_negative_eps(bar, eps):
    # a NaN eps would mark every profile unconverged and keep every candidate
    for call in (lambda: gf.verify_equilibrium(bar, gf.uniform_profile(bar), eps),
                 lambda: gf.find_equilibrium(bar, eps=eps),
                 lambda: gf.support_enumeration(bar, eps=eps)):
        with pytest.raises(ValueError, match="eps must be non-negative"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_equilibria_reject_non_finite_payoffs(bad, capfd):
    payoffs = np.zeros((2, 2, 2))
    payoffs[1, 0, 0] = bad
    g = gf.GameSpec(payoffs)
    s = gf.uniform_profile(g)
    for call in (gf.support_enumeration, gf.pure_equilibria, gf.find_equilibrium,
                 lambda g: gf.verify_equilibrium(g, s, 1e-8),
                 lambda g: gf.best_response_gap(g, s, 0),
                 lambda g: gf.nash_map(g, s)):
        with pytest.raises(ValueError, match="equilibria need finite payoffs"):
            call(g)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2)])
def test_equilibria_reject_a_player_without_strategies(shape):
    g = gf.GameSpec(np.zeros(shape))
    for call in (gf.support_enumeration, gf.pure_equilibria, gf.find_equilibrium):
        with pytest.raises(ValueError, match="equilibria need a strategy for every player"):
            call(g)


def same_report(a, b):
    return (a.profile == b.profile and a.gaps.tobytes() == b.gaps.tobytes()
            and a.epsilon == b.epsilon and a.converged == b.converged)


@pytest.mark.parametrize("seed", range(12))
def test_support_enumeration_reports_are_verify_equilibrium_bit_for_bit(seed):
    # the kept rows take their gaps and epsilon from the one stacked sweep
    g = gf.random_game(2, [4, 4] if seed % 2 else [3, 5], seed)
    for eps in (0.0, 1e-8, 1e-6, 0.1):
        for report in gf.support_enumeration(g, eps):
            assert same_report(report, gf.verify_equilibrium(g, report.profile, eps))


@pytest.mark.parametrize("n, m, seed, eps", [
    (2, [4, 4], 0, SEARCH_EPS), (2, [4, 4], 1, SEARCH_EPS), (2, [4, 4], 7, 0.0),
    (2, [4, 4], 10, 0.1), (2, [3, 5], 4, 0.0), (2, [2, 7], 3, SEARCH_EPS),
    (3, [2, 2, 2], 6, 0.05), (3, [2, 2, 2], 1, SEARCH_EPS)])
def test_answers_search_is_find_equilibrium(n, m, seed, eps):
    # covered games with and without a vertex within eps, and 3-player ones
    g = gf.random_game(n, m, seed)
    pure, mixed, search = _answers(g, eps, seed=3)
    assert same_report(search, gf.find_equilibrium(g, seed=3, eps=eps))
    assert pure == [list(v) for v in gf.pure_equilibria(g)]
    expected = gf.support_enumeration(g, eps) if _enumerable(g) else []
    assert len(mixed) == len(expected)
    assert all(map(same_report, mixed, expected))


@pytest.mark.parametrize("game", ["rps", "bar", "affine"])
def test_equilibria_command_scans_and_enumerates_once(game, monkeypatch):
    # rps has no pure equilibrium, bar has one, and support enumeration does
    # not cover the 3-player game
    g = (gf.random_game(3, [2, 3, 2], 5, jointly_affine=True) if game == "affine"
         else gf.builtin_game(game))
    counts = {"scans": 0, "enumerations": 0}
    scan, enumerate_ = equilibria._vertex_gaps, equilibria.support_enumeration

    def counting_scan(g):
        counts["scans"] += 1
        return scan(g)

    def counting_enumeration(g, eps):
        counts["enumerations"] += 1
        return enumerate_(g, eps)

    monkeypatch.setattr(equilibria, "_vertex_gaps", counting_scan)
    monkeypatch.setattr(equilibria, "support_enumeration", counting_enumeration)
    code, _, err = cli.run(["equilibria"], read_stdin=lambda: gf.write_game(g))
    assert (code, err) == (0, "")
    assert counts == {"scans": 1, "enumerations": int(game != "affine")}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m1=st.integers(1, 6), m2=st.integers(1, 6),
       integer=st.booleans(), share=st.one_of(st.none(), st.floats(1e-6, 0.5)))
def test_support_enumeration_matches_the_pair_by_pair_solve(seed, m1, m2, integer, share):
    # eps is 1e-8 or a share of max|T| over pi, never a candidate's epsilon:
    # at eps = 0 or a simple fraction of an integer game's max|T|, whether a
    # candidate's epsilon ties eps or misses it by a crumb depends on the solver
    rng = np.random.default_rng(seed)
    payoffs = (rng.integers(-2, 3, size=(m1, m2, 2)).astype(float) if integer
               else rng.standard_normal((m1, m2, 2)))
    g = gf.GameSpec(payoffs)
    eps = 1e-8 if share is None else share / np.pi * g.scale
    found = gf.support_enumeration(g, eps)
    expected = loop_support_enumeration(g, eps)
    assert len(found) == len(expected)
    for a, b in zip(found, expected):
        assert np.abs(a.profile.concat() - b.profile.concat()).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), count=st.integers(1, 40), rows=st.integers(1, 6),
       cols=st.integers(1, 6), kind=st.sampled_from(["generic", "low-rank", "integer", "binary"]),
       data=st.data())
def test_indifference_weights_of_a_subset_are_the_full_stack_rows(seed, count, rows, cols,
                                                                  kind, data):
    # support enumeration solves its second side only on the first side's
    # survivors, so a subset of a stack must solve as the full stack does
    rng = np.random.default_rng(seed)
    if kind == "generic":
        stack = rng.standard_normal((count, rows, cols))
    elif kind == "low-rank":        # each matrix of its own rank, 0 included
        inner = rng.integers(0, min(rows, cols) + 1, size=count)
        stack = np.array([rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
                          for r in inner])
    else:
        low, high = (-2, 3) if kind == "integer" else (0, 2)
        stack = rng.integers(low, high, size=(count, rows, cols)).astype(float)
    idx = np.array(data.draw(st.lists(st.integers(0, count - 1), min_size=1,
                                      max_size=count, unique=True)))
    assert (_indifference_weights(stack[idx]).tobytes()
            == _indifference_weights(stack)[idx].tobytes())


def same_reports_bit_for_bit(found, expected):
    assert len(found) == len(expected)
    for a, b in zip(found, expected):
        assert a.profile.concat().tobytes() == b.profile.concat().tobytes()
        assert a.gaps.tobytes() == b.gaps.tobytes()
        assert np.float64(a.epsilon).tobytes() == np.float64(b.epsilon).tobytes()
        assert a.converged and b.converged


@pytest.mark.parametrize("m", [(1, 1), (1, 4), (2, 2), (3, 2), (3, 3), (4, 4), (2, 6), (6, 3),
                               (5, 5), (6, 6), (5, 7), (7, 5), (4, 8), (2, 10), (1, 11)])
@pytest.mark.parametrize("kind", ["generic", "zero-sum", "integer", "binary"])
def test_support_enumeration_is_the_two_sided_solve_bit_for_bit(m, kind):
    # the oracle solves both sides of every pair, so neither the pairs pruned
    # by dominance nor the second side solved on the first side's survivors
    # alone may change a bit
    rng = np.random.default_rng([*m, len(kind)])
    if kind == "generic":
        payoffs = rng.standard_normal(m + (2,))
    elif kind == "zero-sum":
        a = rng.standard_normal(m)
        payoffs = np.stack([a, -a], axis=-1)
    else:       # degenerate: ties, rank-deficient systems and continua
        low, high = (-2, 3) if kind == "integer" else (0, 2)
        payoffs = rng.integers(low, high, size=m + (2,)).astype(float)
    for scale in (1.0, 1e-7, 3e9):
        g = gf.GameSpec(scale * payoffs)
        for eps in (0.0, 1e-8 * scale, 1e-6 * scale, 0.3 * g.scale):
            same_reports_bit_for_bit(gf.support_enumeration(g, eps),
                                     two_sided_support_enumeration(g, eps))


@pytest.mark.parametrize("player", [0, 1])
@pytest.mark.parametrize("scale, eps", [(1.0, 1e-3), (1.0, 0.1), (3e9, 3e6), (1e-7, 1e-12)])
def test_support_enumeration_prunes_exactly_at_the_dominance_margin(player, scale, eps,
                                                                   monkeypatch):
    # one player's second strategy beats the first by a margin: within eps
    # the pure pair stays an equilibrium; just past eps, inside the prune
    # slack, the pair is solved and the sweep drops it; at twice eps the two
    # pairs holding the beaten strategy are pruned unsolved, leaving 2 of the
    # 5 systems.  Either way the reports are the unpruned solve's.
    solved = []
    weights = equilibria._indifference_weights
    monkeypatch.setattr(equilibria, "_indifference_weights",
                        lambda mat: solved.append(len(mat)) or weights(mat))
    for margin, reports, systems in ((0.999 * eps, 2, 5), (eps * (1 + 1e-9), 1, 5),
                                     (2 * eps, 1, 2)):
        payoffs = np.zeros((2, 1, 2))
        payoffs[:, 0, player] = scale * 0.5, scale * 0.5 + margin
        payoffs[:, 0, 1 - player] = scale, -scale
        g = gf.GameSpec(payoffs if player == 0 else payoffs.transpose(1, 0, 2))
        solved.clear()
        found = gf.support_enumeration(g, eps)
        assert (len(found), sum(solved)) == (reports, systems)
        same_reports_bit_for_bit(found, two_sided_support_enumeration(g, eps))


def test_support_enumeration_solves_few_dominance_survivors(monkeypatch):
    # equilibria-lib's seed-0 6x6 game: every one of its 3,969 pairs was
    # solved for one side, 4,335 matrices in all, before the dominance prune;
    # the prune leaves exactly 277 systems in 29 stacks, so a table that
    # prunes less (slower) or more (wrong) fails here
    solved = []
    weights = equilibria._indifference_weights
    monkeypatch.setattr(equilibria, "_indifference_weights",
                        lambda mat: solved.append(len(mat)) or weights(mat))
    gf.support_enumeration(gf.random_game(2, (6, 6), 6))
    assert (sum(solved), len(solved)) == (277, 29)


@pytest.mark.parametrize("m, a, b", [((3, 5), 0, 1), ((5, 2), 0, 1), ((6, 6), 0, 1),
                                     ((2, 10), 0, 1), ((3, 4, 3), 0, 2), ((2, 3, 4), 1, 2),
                                     ((3, 2, 2, 3), 1, 3)])
@pytest.mark.parametrize("kind", ["generic", "integer", "binary"])
@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_dominance_table_blocks_are_the_per_class_prune(m, a, b, kind, tau):
    # every class block of the one table per stack is the mask built for
    # that class alone, on stacks of one or several slices, with m_a != m_b,
    # and with integer payoffs whose differences fall exactly at tau
    rng = np.random.default_rng([*m, a, b, len(kind)])
    if kind == "generic":
        payoffs = rng.standard_normal((*m, len(m)))
    else:
        low, high = (-2, 3) if kind == "integer" else (0, 2)
        payoffs = rng.integers(low, high, size=(*m, len(m))).astype(float)
    for k_a, k_b in ((m[a], m[b]), (min(2, m[a]), min(3, m[b]))):
        stack, table = _subgames(payoffs, tau, a, b, k_a, k_b)
        assert stack.tobytes() == loop_subgame_stack(payoffs, a, b).tobytes()
        if kind != "generic":       # some j' gains exactly tau over another j of a
            gains = stack[:, None, :, :, 0] - stack[:, :, None, :, 0]
            assert ((gains == tau) & ~np.eye(m[a], dtype=bool)[:, :, None]).any()
        rows_a = np.cumsum([0] + [comb(m[a], k) for k in range(1, k_a + 1)])
        rows_b = np.cumsum([0] + [comb(m[b], k) for k in range(1, k_b + 1)])
        assert table.shape == (len(stack), rows_a[-1], rows_b[-1])
        for i, j in itertools.product(range(k_a), range(k_b)):
            block = table[:, rows_a[i]:rows_a[i + 1], rows_b[j]:rows_b[j + 1]]
            assert np.array_equal(block, class_dominance(stack, tau, i + 1, j + 1))


def test_cached_supports_are_read_only():
    # the cache hands the same arrays to every caller, so none may write them
    index, offsets, mask = _supports(5, 3)
    assert offsets == (0, 5, 15, 25)
    for k, rows in enumerate(index, start=1):
        assert rows.tolist() == [list(c) for c in itertools.combinations(range(5), k)]
        assert mask[offsets[k - 1]:offsets[k]].sum(axis=1).tolist() == [k] * len(rows)
    for array in (*index, mask):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert _supports(5, 3)[2] is mask


def test_support_enumeration_without_a_feasible_pair_is_empty(monkeypatch):
    # no pair left to verify makes an empty stack, not a failed concatenation
    monkeypatch.setattr(equilibria, "_indifference_weights",
                        lambda mat: np.full(mat.shape[::2], np.nan))
    assert gf.support_enumeration(gf.builtin_game("rps")) == []


def test_support_enumeration_of_constant_games_keeps_every_support_pair():
    # every pair is an equilibrium, uniform on its supports, so each is its
    # own report: the duplicate check sees every earlier one
    g = gf.GameSpec(np.zeros((4, 4, 2)))
    found, expected = gf.support_enumeration(g, 1e-6), loop_support_enumeration(g, 1e-6)
    assert len(found) == len(expected) == 225
    for a, b in zip(found, expected):
        assert np.abs(a.profile.concat() - b.profile.concat()).max() <= 1e-12
    found = gf.support_enumeration(gf.GameSpec(np.zeros((6, 6, 2))), 1e-6)
    assert len(found) == 63 ** 2
    assert len({tuple(r.profile.concat() > 0) for r in found}) == 63 ** 2


def test_support_enumeration_drops_candidates_with_a_nan_gain():
    # at the float range a raw gain can be inf - inf; the sweep runs on the
    # normalized payoffs, so the candidate with a gain past the float range
    # is dropped and the fifth, whose raw gains read NaN, is kept
    payoffs = np.stack([[[0.0, 1.0], [0.0, 1.0]], [[-1.0, 1.0], [1.0, 1.0]]], axis=-1)
    g = gf.GameSpec(payoffs * 1.7976931348623157e308)
    assert gf.validate_game(g) == []
    found = gf.support_enumeration(g, SEARCH_EPS)
    assert [r.profile.concat().tolist() for r in found] == [
        [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
        [0.0, 1.0, 0.6666666666666666, 0.33333333333333337],
        [0.5000000000000001, 0.5, 0.0, 1.0]]
    assert all(r.gaps.tolist() == [0.0, 0.0] and r.epsilon == 0.0 for r in found)
    # an equilibrium: the game scaled into range verifies it at epsilon 0
    small = gf.GameSpec(np.ldexp(g.payoffs, -1000))
    assert gf.verify_equilibrium(small, found[-1].profile, 0.0).converged
    code, out, err = cli.run(["equilibria"], read_stdin=lambda: gf.write_game(g))
    lines = out.decode().splitlines()
    assert (code, err) == (0, "")
    assert sum(line.startswith("mixed: ") for line in lines) == 5
    assert lines[-1] == "search: 1,0; 0,1 converged=yes epsilon=0"


def test_support_enumeration_rps(rps):
    reports = gf.support_enumeration(rps, eps=1e-10)
    assert len(reports) == 1
    report = reports[0]
    assert report.epsilon <= 1e-10
    for block in report.profile.blocks:
        assert block == pytest.approx([1 / 3] * 3, abs=1e-9)


def test_support_enumeration_bar(bar):
    reports = gf.support_enumeration(bar, eps=1e-10)
    assert len(reports) == 1
    assert reports[0].profile == gf.pure_profile(bar, (0, 0))
    assert reports[0].epsilon == 0.0


def test_support_enumeration_matching_pennies():
    reports = gf.support_enumeration(matching_pennies(), eps=1e-10)
    assert len(reports) == 1
    for block in reports[0].profile.blocks:
        assert block == pytest.approx([0.5, 0.5], abs=1e-12)


def test_support_enumeration_errors():
    g3 = gf.random_game(3, [2, 2, 2], seed=1)
    with pytest.raises(ValueError, match="not a 2-player game"):
        gf.support_enumeration(g3)
    big = gf.random_game(2, [7, 7], seed=1)
    with pytest.raises(ValueError, match="supports too large"):
        gf.support_enumeration(big)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 5), exponent=st.floats(-12.0, 12.0),
       power=st.integers(-60, 60))
def test_support_enumeration_does_not_depend_on_the_payoff_scale(seed, m, exponent, power):
    g = gf.random_game(2, [m, m], seed=seed)
    found = gf.support_enumeration(g)
    scaled = gf.support_enumeration(gf.GameSpec(10.0 ** exponent * g.payoffs),
                                    eps=1e-8 * 10.0 ** exponent)
    assert len(scaled) == len(found)
    for a, b in zip(found, scaled):
        assert np.abs(a.profile.concat() - b.profile.concat()).max() <= 1e-12
    exact = gf.support_enumeration(gf.GameSpec(np.ldexp(g.payoffs, power)),
                                   eps=np.ldexp(1e-8, power))
    assert ([r.profile.concat().tobytes() for r in exact]
            == [r.profile.concat().tobytes() for r in found])


def test_search_results_self_verify():
    for seed in range(5):
        g = gf.random_game(2, [3, 4], seed=1000 + seed)
        for report in gf.support_enumeration(g, eps=1e-8):
            again = gf.verify_equilibrium(g, report.profile, 1e-8)
            assert again.converged


def test_pure_deviation_sufficiency_sample():
    rng = np.random.default_rng(71)
    for seed in range(100):
        n = 2 + seed % 2
        g = gf.random_game(n, [2 + (seed + j) % 3 for j in range(n)], seed=1100 + seed)
        s = interior_profile(g, rng)
        player = seed % n
        gap = gf.best_response_gap(g, s, player)
        base = gf.expected_payoff(g, s, player)
        for _ in range(20):
            sigma = gf.random_interior_profile(g, rng).blocks[player]
            gain = gf.expected_payoff(g, gf.unilateral_replace(s, player, sigma), player) - base
            assert gain <= gap + 1e-10


def test_fixed_point_characterization_sample():
    checked = 0
    gi = 0
    while checked < 40:
        g = gf.random_game(2, [2 + gi % 3, 2 + (gi + 1) % 3], seed=1200 + gi)
        gi += 1
        reports = gf.support_enumeration(g, eps=1e-12)
        if not reports:
            continue
        s = reports[0].profile
        displacement = max(np.abs(a - b).max()
                           for a, b in zip(gf.nash_map(g, s).blocks, s.blocks))
        assert displacement <= 1e-10
        assert gf.verify_equilibrium(g, s, 1e-8).converged
        rng = np.random.default_rng([1200, gi])
        drift = gf.random_interior_profile(g, rng)
        perturbed = gf.StrategyProfile([0.999 * b + 0.001 * d
                                        for b, d in zip(s.blocks, drift.blocks)])
        displacement = max(np.abs(a - b).max()
                           for a, b in zip(gf.nash_map(g, perturbed).blocks, perturbed.blocks))
        assert displacement > 1e-10
        assert not gf.verify_equilibrium(g, perturbed, 1e-8).converged
        checked += 2


def test_bar_level_set_payoff_matches_equilibrium(bar):
    # the whole x = y segment pays exactly what the equilibrium pays
    eq_pay = gf.total_payoff(bar, gf.pure_profile(bar, (0, 0)))
    assert eq_pay.tolist() == [0.0, 0.0]
    for t in np.linspace(0.0, 1.0, 21):
        s = gf.StrategyProfile([[t, 1.0 - t], [t, 1.0 - t]])
        assert gf.total_payoff(bar, s) == pytest.approx(eq_pay, abs=1e-15)
