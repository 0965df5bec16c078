import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gamefibers as gf
from gamefibers.games import _blocks_from_reduced, _deviations, _payoff_reduced
from helpers import grid_project, loop_deviation_payoffs, loop_expected_payoff, loop_fill


def test_validate_rps_ok(rps):
    assert gf.validate_game(rps) == []


def test_from_entries_rejects_incomplete_tensor():
    entries = [((0, 0), (0.0, 0.0)), ((0, 1), (1.0, -1.0)), ((1, 0), (-1.0, 1.0))]
    with pytest.raises(ValueError) as info:
        gf.GameSpec.from_entries((2, 2), entries)
    assert str(info.value) == "missing profile [1, 1] (1 of 4 profiles absent)"


def test_validate_reports_non_finite():
    payoffs = np.zeros((2, 2, 2))
    payoffs[1, 0, 1] = np.inf
    g = gf.GameSpec(payoffs)
    defects = gf.validate_game(g)
    assert [d.code for d in defects] == ["non-finite payoff"]


def test_validate_reports_non_finite_payoffs_as_one_defect():
    # one defect however many entries are bad: the first in C order, and a count
    g = gf.GameSpec(np.full((10,) * 6 + (6,), np.nan))
    defects = gf.validate_game(g)
    assert [str(d) for d in defects] == [
        "non-finite payoff: payoff to player 0 at profile (0, 0, 0, 0, 0, 0) is nan "
        "(6000000 of 6000000 payoff entries non-finite)"]
    payoffs = np.zeros((2, 3, 2))
    payoffs[1, 2, 0] = -np.inf
    payoffs[0, 1, 1] = np.inf
    assert [d.message for d in gf.validate_game(gf.GameSpec(payoffs))] == [
        "payoff to player 1 at profile (0, 1) is inf (2 of 12 payoff entries non-finite)"]


def test_validate_reports_player_count_and_shape():
    g = gf.GameSpec(np.zeros((3, 1)))  # one player
    codes = {d.code for d in gf.validate_game(g)}
    assert "player count" in codes
    g = gf.GameSpec(np.zeros((2, 2, 3)))  # payoff axis too long
    codes = {d.code for d in gf.validate_game(g)}
    assert "payoff vector length" in codes


def test_validate_reports_empty_strategies_and_label_shape():
    g = gf.GameSpec(np.zeros((0, 2, 2)))  # a player without strategies
    assert [d.code for d in gf.validate_game(g)] == ["empty strategy set"]
    g = gf.GameSpec(np.zeros((2, 2, 2)), player_names=["a"], strategy_labels=[["x"], ["y", "z"]])
    assert [(d.code, d.message) for d in gf.validate_game(g)] == [
        ("label shape", "player_names length does not match player count"),
        ("label shape", "strategy_labels do not match strategy counts")]


def test_unlabelled_games_get_the_written_default_labels(bar):
    g = gf.GameSpec(np.zeros((2, 3, 2)))
    assert [g.label(1, j) for j in range(3)] == ["s0", "s1", "s2"]
    assert bar.label(0, 1) == "A"
    written = gf.parse_game(gf.write_game(g))
    generated = gf.random_game(2, (2, 3), seed=0)
    for h in (written, generated):
        assert h.player_names == ("player1", "player2")
        assert h.strategy_labels == (("s0", "s1"), ("s0", "s1", "s2"))


def test_bad_arguments_raise(bar):
    with pytest.raises(ValueError, match="player axes plus a trailing payoff axis"):
        gf.GameSpec(np.zeros(3))
    with pytest.raises(ValueError, match="profile needs at least one block"):
        gf.StrategyProfile([])
    with pytest.raises(ValueError, match="block 0 must be a nonempty vector"):
        gf.StrategyProfile([[[1.0]]])
    with pytest.raises(ValueError, match=r"profile \(0,\) does not have 2 entries"):
        gf.pure_profile(bar, (0,))
    with pytest.raises(IndexError, match="strategy index 5 out of range for player 1"):
        gf.pure_profile(bar, (0, 5))
    with pytest.raises(ValueError, match="seed must be non-negative"):
        gf.random_game(2, (2, 2), -1)
    with pytest.raises(IndexError, match="player index 2 out of range"):
        gf.deviation_payoffs(bar, gf.uniform_profile(bar), 2)


def test_from_entries_rejects_duplicates_and_bad_indices():
    with pytest.raises(ValueError, match="duplicate profile"):
        gf.GameSpec.from_entries((2, 2), [((0, 0), (0, 0)), ((0, 0), (1, 1))])
    with pytest.raises(ValueError, match="out of range"):
        gf.GameSpec.from_entries((2, 2), [((0, 5), (0, 0))])
    with pytest.raises(ValueError, match="payoff values"):
        gf.GameSpec.from_entries((2, 2), [((0, 0), (0, 0, 0))])


@pytest.mark.parametrize("m, entries, message", [
    ((2, 2), [((0,), (1, 2))], "profile (0,) does not have 2 entries"),
    ((2, 2), [((0, 5), (0, 0))], "profile (0, 5): strategy index 5 out of range for player 1"),
    ((2, 2), [((np.int64(1), -1), (0, 0))],
     "profile (1, -1): strategy index -1 out of range for player 1"),
    ((2, 2), [((10 ** 30, 0), (0, 0))],
     f"profile ({10 ** 30}, 0): strategy index {10 ** 30} out of range for player 0"),
    ((2, 2), [((0, 0), (0, 0)), ((1, 1), (0, 0)), ((0, 0), (1, 1))],
     "duplicate profile (0, 0)"),
    ((2, 2), [((0, 0), (0, 0, 0))], "profile (0, 0): expected 2 payoff values"),
    ((2, 2), [((1, 0), np.zeros((2, 1)))], "profile (1, 0): expected 2 payoff values"),
    ((10,) * 6, [], "missing profile [0, 0, 0, 0, 0, 0] (1000000 of 1000000 profiles absent)"),
], ids=["profile-length", "out-of-range", "numpy-index", "huge-index", "duplicate",
        "values-length", "values-shape", "no-entries-1e6"])
def test_from_entries_messages(m, entries, message):
    with pytest.raises(ValueError) as info:
        gf.GameSpec.from_entries(m, entries)
    assert str(info.value) == message


@st.composite
def entry_lists(draw):
    m = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    values = st.tuples(*(st.floats(-1e3, 1e3) for _ in m))
    if draw(st.booleans()):     # half the cases list every profile once, shuffled
        profiles = draw(st.permutations(list(np.ndindex(*m))))
        return m, [(profile, draw(values)) for profile in profiles]
    low, high = (-1, 0) if draw(st.booleans()) else (0, -1)    # half of the rest in range
    profile = st.tuples(*(st.integers(low, mi + high) for mi in m))
    return m, draw(st.lists(st.tuples(profile, values), max_size=40))


@settings(max_examples=300, deadline=None)
@given(entry_lists())
def test_from_entries_matches_loop_fill(case):
    m, entries = case
    expected = loop_fill(m, entries)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            gf.GameSpec.from_entries(m, entries)
        assert str(info.value) == expected
        return
    g = gf.GameSpec.from_entries(m, iter(entries))
    assert np.array_equal(g.payoffs, expected)


def test_game_too_large_rejected():
    with pytest.raises(ValueError, match="game too large"):
        gf.GameSpec(np.zeros((101, 101, 101, 3)))


def test_from_entries_checks_size_before_allocating():
    # 10**12 profiles: the payoff tensor could never be allocated
    with pytest.raises(ValueError, match="game too large"):
        gf.GameSpec.from_entries((10 ** 4,) * 3, [])


def test_profile_probability_uniform_and_pure(rps):
    u = gf.uniform_profile(rps)
    for v in np.ndindex(*rps.m):
        assert gf.profile_probability(u, v) == pytest.approx(1.0 / 9.0, abs=1e-15)
    s = gf.pure_profile(rps, (2, 1))
    assert gf.profile_probability(s, (2, 1)) == 1.0
    assert gf.profile_probability(s, (0, 0)) == 0.0


def test_profile_probability_product():
    s = gf.StrategyProfile([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    # product of the selected coordinates: 0.5 * 0.6
    assert gf.profile_probability(s, (0, 1)) == pytest.approx(0.30, abs=1e-15)
    total = sum(gf.profile_probability(s, v) for v in np.ndindex(3, 3))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_profile_probability_errors(rps):
    s = gf.uniform_profile(rps)
    with pytest.raises(IndexError):
        gf.profile_probability(s, (0, 3))
    with pytest.raises(ValueError):
        gf.profile_probability(s, (0, 0, 0))


# A strategy or player index must be an integer: numpy integers pass, and a
# float or a string is one ValueError naming it.

def test_pure_profile_rejects_a_non_integral_strategy_index(rps):
    with pytest.raises(ValueError, match=r"^strategy index must be an integer, got 0\.9$"):
        gf.pure_profile(rps, (0.9, 2.7))
    with pytest.raises(ValueError, match=r"^strategy index must be an integer, got '1'$"):
        gf.pure_profile(rps, (0, "1"))
    assert gf.pure_profile(rps, (np.int64(0), np.uint8(2))) == gf.pure_profile(rps, (0, 2))


def test_profile_probability_rejects_a_non_integral_strategy_index(rps):
    s = gf.StrategyProfile([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    with pytest.raises(ValueError, match=r"^strategy index must be an integer, got 1\.5$"):
        gf.profile_probability(s, (1.5, 0))
    assert gf.profile_probability(s, np.array([1, 0])) == gf.profile_probability(s, (1, 0))


@pytest.mark.parametrize("player", [0.5, 1.5, np.float64(1.0), None])
def test_deviation_payoffs_rejects_a_non_integral_player(bar, player):
    s = gf.uniform_profile(bar)
    with pytest.raises(ValueError) as info:
        gf.deviation_payoffs(bar, s, player)
    assert str(info.value) == f"player index must be an integer, got {player!r}"
    assert np.array_equal(gf.deviation_payoffs(bar, s, np.int32(1)),
                          gf.deviation_payoffs(bar, s, 1))


@pytest.mark.parametrize("player", [0.5, 1.5])
def test_expected_payoff_rejects_a_non_integral_player(bar, player):
    s = gf.uniform_profile(bar)
    with pytest.raises(ValueError, match=rf"^player index must be an integer, got {player}$"):
        gf.expected_payoff(bar, s, player)
    assert gf.expected_payoff(bar, s, np.int64(1)) == gf.expected_payoff(bar, s, 1)


@pytest.mark.parametrize("player", [0.5, 1.5])
def test_unilateral_replace_rejects_a_non_integral_player(rps, player):
    u = gf.uniform_profile(rps)
    with pytest.raises(ValueError, match=rf"^player index must be an integer, got {player}$"):
        gf.unilateral_replace(u, player, [1.0, 0.0, 0.0])
    assert (gf.unilateral_replace(u, np.int64(1), [1.0, 0.0, 0.0])
            == gf.unilateral_replace(u, 1, [1.0, 0.0, 0.0]))


def test_vertex_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    for seed in range(20):
        g = gf.random_game(2 + seed % 2, [2 + seed % 3] * (2 + seed % 2), seed=seed)
        s = gf.random_interior_profile(g, rng)
        total = sum(gf.profile_probability(s, v) for v in np.ndindex(*g.m))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_rps_uniform_payoff_is_zero(rps):
    u = gf.uniform_profile(rps)
    assert gf.expected_payoff(rps, u, 0) == 0.0
    assert gf.expected_payoff(rps, u, 1) == 0.0


def test_rps_closed_form_both_players(rps):
    rng = np.random.default_rng(42)
    for _ in range(200):
        s = gf.random_interior_profile(rps, rng)
        (a, b, c), (x, y, z) = s.blocks
        mine = -a * y + a * z + b * x - b * z + c * y - c * x
        assert gf.expected_payoff(rps, s, 0) == pytest.approx(mine, abs=1e-12)
        assert gf.expected_payoff(rps, s, 1) == pytest.approx(-mine, abs=1e-12)


def test_expected_payoff_matches_literal_loop():
    rng = np.random.default_rng(11)
    for seed in range(1000):
        n = 2 + seed % 2
        m = [2 + (seed + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=seed, zero_sum=(seed % 3 == 0))
        s = gf.random_interior_profile(g, rng)
        i = seed % n
        assert gf.expected_payoff(g, s, i) == pytest.approx(
            loop_expected_payoff(g, s, i), abs=1e-12)


@pytest.mark.parametrize("m", [
    (2, 3), (1, 4), (3, 1), (2, 1, 3), (4, 3, 2), (3, 1, 1, 2), (2, 3, 2, 2),
    (2, 2, 1, 3, 2), (3, 2, 2, 2, 2), (2, 1, 2, 2, 3, 2), (2, 2, 2, 2, 2, 2),
])
def test_deviation_payoffs_match_loop_oracle(m):
    rng = np.random.default_rng(list(m))
    n = len(m)
    payoffs = rng.uniform(-1.0, 1.0, size=m + (n,)) * 10.0 ** rng.integers(-3, 4)
    g = gf.GameSpec(payoffs)
    # float64 sums of at most 64 products: 1e-12 of the scale is ample
    tol = 1e-12 * max(1.0, float(np.abs(payoffs).max()))
    for _ in range(3):
        s = gf.random_interior_profile(g, rng)
        for p in range(n):
            assert np.abs(gf.deviation_payoffs(g, s, p)
                          - loop_deviation_payoffs(g, s, p)).max() <= tol
        pay, devs = _deviations(g.payoffs, s.blocks)
        chain = g.payoffs
        for b in s.blocks[:-1]:
            chain = np.tensordot(b, chain, axes=(0, 0))
        assert np.array_equal(devs[-1], chain)
        assert np.array_equal(pay, s.blocks[-1] @ devs[-1])
        assert np.array_equal(gf.total_payoff(g, s), pay)
        assert np.array_equal(_deviations(g.payoffs, s.blocks, ())[0], gf.total_payoff(g, s))
        # asking for one player gives its rows and the payoff bit for bit;
        # only the last player's rows (the chain) come along
        for p in range(n):
            one_pay, one = _deviations(g.payoffs, s.blocks, (p,))
            assert np.array_equal(one_pay, pay)
            assert np.array_equal(one[p], devs[p]) and np.array_equal(one[-1], devs[-1])
            assert all(one[q] is None for q in range(n - 1) if q != p)


@st.composite
def strategy_counts(draw, n, most, profiles=6000):
    """n strategy counts in 1..most with at most ``profiles`` pure profiles:
    each count is drawn within what the earlier ones leave."""
    m = []
    for _ in range(n):
        m.append(draw(st.integers(1, max(1, min(most, profiles // math.prod(m))))))
    return tuple(m)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(2, 6).flatmap(lambda n: strategy_counts(n, 10)), pick=st.integers(0, 99),
       seed=st.integers(0, 2 ** 32 - 1), stack=st.sampled_from([(1,), (4,), (2, 3)]))
@example(m=(8,) * 6, pick=0, seed=11, stack=(1,))    # 6x8^6, the largest game the benchmark sweeps
def test_stacked_sweep_slices_equal_lone_sweeps(m, pick, seed, stack):
    # one vector-matrix product per contraction and slice, broadcast for a
    # stack and on 1-D operands for a lone profile: every slice is its own
    # sweep, up to 6 players and 10 strategies a player
    n = len(m)
    choices = [None, ()] + [(p,) for p in range(n)] + [tuple(range(1, n)), (0, n - 1)]
    players = choices[pick % len(choices)]
    rng = np.random.default_rng(seed)
    g = gf.GameSpec(rng.standard_normal(m + (n,)))
    profiles = np.empty(stack, dtype=object)
    for idx in np.ndindex(stack):
        profiles[idx] = gf.random_interior_profile(g, rng)
    blocks = [np.stack([s.blocks[p] for s in profiles.flat]).reshape(*stack, m[p])
              for p in range(n)]
    pay, devs = _deviations(g.payoffs, blocks, players)
    assert pay.shape == stack + (n,)
    for idx in np.ndindex(stack):
        lone_pay, lone = _deviations(g.payoffs, profiles[idx].blocks, players)
        assert pay[idx].tobytes() == lone_pay.tobytes()
        for dev, one in zip(devs, lone, strict=True):
            assert (dev is None) == (one is None)
            if one is not None:
                assert dev[idx].tobytes() == one.tobytes()


@settings(max_examples=80, deadline=None)
@given(m=st.integers(2, 5).flatmap(lambda n: strategy_counts(n, 12)),
       seed=st.integers(0, 2 ** 32 - 1), stack=st.sampled_from([(1,), (3,), (2, 3)]))
@example(m=(2, 1, 3), seed=0, stack=(2, 3))      # a single-strategy player
@example(m=(1, 1), seed=0, stack=(3,))           # no chart coordinates at all
@example(m=(12, 9, 10), seed=0, stack=(2, 3))    # implied coordinates of 8 to 11 terms
def test_stacked_chart_points_equal_lone_points(m, seed, stack):
    # the rebuilt blocks and the payoff of each slice of a stack of chart
    # points, off the simplex included, are the lone point's bit for bit;
    # blocks of 9 or more strategies sum 8 or more terms, where numpy's
    # pairwise sum starts to unroll
    rng = np.random.default_rng(seed)
    g = gf.GameSpec(rng.standard_normal(m + (len(m),)))
    points = rng.uniform(-0.5, 1.0, stack + (g.reduced_dim,))
    blocks, pay = _blocks_from_reduced(m, points), _payoff_reduced(g.payoffs, points)
    assert [b.shape for b in blocks] == [stack + (mi,) for mi in m]
    for idx in np.ndindex(stack):
        lone = np.array(points[idx])
        for b, one in zip(blocks, _blocks_from_reduced(m, lone), strict=True):
            assert b[idx].tobytes() == one.tobytes()
        assert pay[idx].tobytes() == _payoff_reduced(g.payoffs, lone).tobytes()
    with pytest.raises(ValueError, match=rf"^reduced point has length {g.reduced_dim + 1}, "
                                         rf"expected {g.reduced_dim}$"):
        _blocks_from_reduced(m, np.zeros(g.reduced_dim + 1))


def test_single_strategy_player_supported():
    payoffs = np.random.default_rng(0).uniform(-1, 1, size=(2, 1, 3, 3))
    g = gf.GameSpec(payoffs)
    assert gf.validate_game(g) == []
    s = gf.uniform_profile(g)
    assert g.reduced_dim == 3
    back = gf.embed_profile(g, gf.reduce_profile(s))
    for a, b in zip(back.blocks, s.blocks):
        assert np.abs(a - b).max() <= 1e-15


def test_total_payoff_bar_fixtures(bar):
    # index 0 is M, index 1 is A
    assert gf.total_payoff(bar, gf.pure_profile(bar, (0, 0))).tolist() == [0.0, 0.0]
    assert gf.total_payoff(bar, gf.pure_profile(bar, (0, 1))).tolist() == [1.0, -1.0]
    assert gf.total_payoff(bar, gf.pure_profile(bar, (1, 0))).tolist() == [-1.0, 1.0]


def test_total_payoff_components_match_expected(rps):
    rng = np.random.default_rng(3)
    s = gf.random_interior_profile(rps, rng)
    pay = gf.total_payoff(rps, s)
    assert pay[0] == gf.expected_payoff(rps, s, 0)
    assert pay[1] == gf.expected_payoff(rps, s, 1)
    assert abs(pay.sum()) <= 1e-12  # zero-sum game


def test_expected_payoff_is_a_total_payoff_component():
    # one contraction defines every payoff: exact equality, not closeness
    for k in range(40):
        rng = np.random.default_rng([5, k])
        n = 2 + k % 4
        m = tuple(int(x) for x in rng.integers(1, 5, size=n))
        payoffs = rng.uniform(-1.0, 1.0, size=m + (n,))
        if k % 2:
            payoffs[..., -1] = -payoffs[..., :-1].sum(axis=-1)
        g = gf.GameSpec(payoffs)
        for _ in range(3):
            s = gf.random_interior_profile(g, rng)
            pay = gf.total_payoff(g, s)
            for p in range(n):
                assert gf.expected_payoff(g, s, p) == pay[p]


def test_unilateral_replace(rps):
    u = gf.uniform_profile(rps)
    same = gf.unilateral_replace(u, 0, u.blocks[0])
    assert same == u
    rock = gf.unilateral_replace(u, 0, [1.0, 0.0, 0.0])
    assert rock.blocks[0].tolist() == [1.0, 0.0, 0.0]
    assert rock.blocks[1].tolist() == u.blocks[1].tolist()
    # every pure strategy scores 0 against uniform
    assert gf.expected_payoff(rps, rock, 0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        gf.unilateral_replace(u, 0, [1.0, 0.0])
    with pytest.raises(ValueError):
        gf.unilateral_replace(u, 0, [0.8, 0.1, 0.0])
    with pytest.raises(IndexError):
        gf.unilateral_replace(u, 2, [1.0, 0.0, 0.0])


def test_is_zero_sum(rps, bar):
    assert gf.is_zero_sum(rps)
    assert gf.is_zero_sum(rps, tol=0.0)
    assert gf.is_zero_sum(bar, tol=0.0)
    ones = gf.GameSpec(np.ones((2, 2, 2)))
    assert not gf.is_zero_sum(ones)


def test_zero_sum_transport():
    rng = np.random.default_rng(9)
    for seed in range(30):
        g = gf.random_game(3, [2, 3, 2], seed=seed, zero_sum=True)
        assert gf.is_zero_sum(g, tol=1e-12)
        s = gf.random_interior_profile(g, rng)
        assert abs(gf.total_payoff(g, s).sum()) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), zero_sum=st.booleans(),
       jointly_affine=st.booleans(), exponent=st.floats(-12.0, 12.0),
       top=st.integers(1018, 1024))
def test_is_zero_sum_does_not_depend_on_the_payoff_scale(seed, zero_sum, jointly_affine,
                                                         exponent, top):
    # the power of two puts max|T| in [2^(top-1), 2^top), up to max float,
    # where a zero-sum game's partial payoff sums can pass the float range
    n = 2 + seed % 3
    g = gf.random_game(n, [2 + (seed + j) % 3 for j in range(n)], seed=seed,
                       zero_sum=zero_sum, jointly_affine=jointly_affine)
    scaled = gf.GameSpec(10.0 ** exponent * g.payoffs)
    edge = gf.GameSpec(np.ldexp(g.payoffs, top - g._exponent))
    assert gf.is_zero_sum(edge) == gf.is_zero_sum(scaled) == gf.is_zero_sum(g) == zero_sum


@pytest.mark.parametrize("power", [0, -4])
def test_zero_sum_at_the_float_edge_does_not_depend_on_the_payoff_scale(power):
    # the partial sum 1.2e308 + 1.2e308 passes max float in payoff units,
    # not on the normalized payoffs
    g = gf.GameSpec(np.ldexp(np.broadcast_to([1.2e308, 1.2e308, -1.2e308, -1.2e308],
                                             (2, 2, 2, 2, 4)), power))
    assert gf.is_zero_sum(g, tol=0.0)
    assert g.zero_sum


@pytest.mark.parametrize("factor", [1.0, 0.75, 3e9, 1.7e308, 5e-324, 0.0])
def test_normalized_payoffs_are_a_cached_read_only_power_of_two_rescaling(factor):
    # the payoffs times 2^-e, max|entry| in [0.5, 1), decided once per game;
    # a game already there (e = 0) gets its own tensor, not a copy
    g = gf.GameSpec(gf.builtin_game("rps").payoffs * factor)
    normalized = g._normalized_payoffs
    assert normalized is g._normalized_payoffs
    if factor == 0.75:
        assert normalized is g.payoffs
    assert np.array_equal(np.ldexp(normalized, g._exponent), g.payoffs)
    assert np.abs(normalized).max() == (0.0 if factor == 0.0 else np.frexp(g.scale)[0])
    with pytest.raises(ValueError, match="read-only"):
        normalized[0, 0, 0] = 1.0


def test_a_game_copies_its_payoffs_and_its_producers_hand_theirs_over(monkeypatch):
    # the constructor copies any array it is given, a read-only one
    # included: a read-only array that owns its data can be made writeable
    # again, and an older view of it stays writeable, so writing through
    # either cannot change the game or its cached scale
    base = np.arange(8.0).reshape(2, 2, 2)
    older = base[:]
    base.setflags(write=False)
    g = gf.GameSpec(base)
    assert g.payoffs is not base and g.scale == 7.0
    older[...] = 100.0
    base.setflags(write=True)
    base[...] = -100.0
    assert np.array_equal(g.payoffs, np.arange(8.0).reshape(2, 2, 2)) and g.scale == 7.0
    view = base.view()
    view.setflags(write=False)
    for other in (base, view, np.broadcast_to([1.0, 2.0], (2, 2, 2)), base.transpose(1, 0, 2),
                  base.astype(np.float32), base.tolist()):
        g = gf.GameSpec(other)
        assert g.payoffs is not other and not g.payoffs.flags.writeable
        assert g.payoffs.dtype == float and np.array_equal(g.payoffs, other)
    # the document parser, from_entries and random_game build a fresh
    # tensor no one else holds and hand it to the game without a copy
    handed = []
    adopt = gf.GameSpec._adopt
    monkeypatch.setattr(gf.GameSpec, "_adopt", staticmethod(
        lambda payoffs, *args, **kw: handed.append(payoffs) or adopt(payoffs, *args, **kw)))
    games = (gf.GameSpec.from_entries((2, 2), [((i, j), (i, j)) for i in range(2) for j in range(2)]),
             gf.parse_game(gf.write_game(gf.builtin_game("rps"))),
             gf.random_game(2, (2, 3), 0, zero_sum=True))
    assert len(handed) == len(games)
    for g, payoffs in zip(games, handed, strict=True):
        assert g.payoffs is payoffs and not payoffs.flags.writeable


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 4), data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["generic", "zero-sum", "affine", "rounded"]))
def test_relabelling_strategies_permutes_the_results(n, data, seed, kind):
    # permuting one player's strategies is a relabelling: the flags and the
    # generic rank stay, each pure equilibrium moves with its labels and the
    # player's deviation rows permute; rounded payoffs have ties, so some
    # games have several equilibria
    m = data.draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    g = gf.random_game(n, m, seed=seed, zero_sum=kind == "zero-sum",
                       jointly_affine=kind == "affine")
    if kind == "rounded":
        g = gf.GameSpec(np.round(2.0 * g.payoffs))
    player = data.draw(st.integers(0, n - 1))
    perm = np.array(data.draw(st.permutations(range(m[player]))))
    relabelled = gf.GameSpec(np.take(g.payoffs, perm, axis=player))
    assert gf.is_zero_sum(relabelled) == gf.is_zero_sum(g)
    assert gf.is_jointly_affine(relabelled) == gf.is_jointly_affine(g)
    assert gf.generic_rank(relabelled, samples=16) == gf.generic_rank(g, samples=16)
    new_label = np.argsort(perm)
    moved = [q[:player] + (int(new_label[q[player]]),) + q[player + 1:]
             for q in gf.pure_equilibria(g)]
    assert gf.pure_equilibria(relabelled) == sorted(moved)
    s = gf.random_interior_profile(g, np.random.default_rng(seed))
    blocks = list(s.blocks)
    blocks[player] = blocks[player][perm]
    rows = gf.deviation_payoffs(relabelled, gf.StrategyProfile(blocks), player)
    tol = 1e-12 * max(1.0, g.scale)
    assert np.abs(rows - gf.deviation_payoffs(g, s, player)[perm]).max() <= tol


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["generic", "zero-sum", "affine"]),
       size=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]))
def test_adding_a_constant_changes_only_the_zero_sum_flag(n, data, seed, kind, size, sign):
    # T + b has the same best responses, differences and level-set geometry
    # as T; only the payoff sums move, by n * b
    m = data.draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    g = gf.random_game(n, m, seed=seed, zero_sum=kind == "zero-sum",
                       jointly_affine=kind == "affine")
    shifted = gf.GameSpec(g.payoffs + sign * size)
    assert not gf.is_zero_sum(shifted)
    assert gf.is_jointly_affine(shifted) == gf.is_jointly_affine(g)
    assert gf.generic_rank(shifted, 16) == gf.generic_rank(g, 16)
    assert gf.pure_equilibria(shifted) == gf.pure_equilibria(g)
    if n == 2:
        found, moved = gf.support_enumeration(g), gf.support_enumeration(shifted)
        assert len(moved) == len(found)
        for a, b in zip(found, moved):
            assert np.abs(a.profile.concat() - b.profile.concat()).max() <= 1e-9


def test_own_block_linearity():
    rng = np.random.default_rng(13)
    for seed in range(50):
        n = 2 + seed % 2
        g = gf.random_game(n, [2 + (seed + j) % 3 for j in range(n)], seed=100 + seed)
        s = gf.random_interior_profile(g, rng)
        i = seed % n
        sigma = gf.random_interior_profile(g, rng).blocks[i]
        sigma2 = gf.random_interior_profile(g, rng).blocks[i]
        lam = rng.uniform()
        mix = gf.unilateral_replace(s, i, lam * sigma + (1 - lam) * sigma2)
        left = gf.expected_payoff(g, mix, i)
        right = (lam * gf.expected_payoff(g, gf.unilateral_replace(s, i, sigma), i)
                 + (1 - lam) * gf.expected_payoff(g, gf.unilateral_replace(s, i, sigma2), i))
        assert left == pytest.approx(right, abs=1e-12)


def test_multilinearity_every_block():
    # linearity holds in any single player's block, for every payoff component
    rng = np.random.default_rng(17)
    g = gf.random_game(3, [2, 3, 2], seed=21)
    s = gf.random_interior_profile(g, rng)
    for p in range(g.n):
        sigma = gf.random_interior_profile(g, rng).blocks[p]
        sigma2 = gf.random_interior_profile(g, rng).blocks[p]
        lam = 0.37
        mix = gf.unilateral_replace(s, p, lam * sigma + (1 - lam) * sigma2)
        for i in range(g.n):
            left = gf.expected_payoff(g, mix, i)
            right = (lam * gf.expected_payoff(g, gf.unilateral_replace(s, p, sigma), i)
                     + (1 - lam) * gf.expected_payoff(g, gf.unilateral_replace(s, p, sigma2), i))
            assert left == pytest.approx(right, abs=1e-12)


def test_reduce_profile_bar(bar):
    s = gf.StrategyProfile([[0.3, 0.7], [0.8, 0.2]])
    assert gf.reduce_profile(s).tolist() == [0.3, 0.8]


def test_embed_examples(bar, rps):
    s = gf.embed_profile(bar, [0.7, 0.7])
    assert s.blocks[0] == pytest.approx([0.7, 0.3], abs=1e-15)
    assert s.blocks[1] == pytest.approx([0.7, 0.3], abs=1e-15)
    u = gf.uniform_profile(rps)
    r = gf.reduce_profile(u)
    assert r.tolist() == [1.0 / 3.0] * 4
    back = gf.embed_profile(rps, r)
    for a, b in zip(back.blocks, u.blocks):
        assert a == pytest.approx(b, abs=1e-15)


def test_reduce_embed_round_trip_interior():
    rng = np.random.default_rng(23)
    for seed in range(40):
        n = 2 + seed % 2
        g = gf.random_game(n, [2 + (seed + j) % 3 for j in range(n)], seed=200 + seed)
        s = gf.random_interior_profile(g, rng)
        back = gf.embed_profile(g, gf.reduce_profile(s))
        for a, b in zip(back.blocks, s.blocks):
            assert np.abs(a - b).max() <= 1e-15
        r = rng.uniform(0.05, 0.2, size=g.reduced_dim)
        again = gf.reduce_profile(gf.embed_profile(g, r))
        assert np.abs(again - r).max() <= 1e-15


def test_embed_rejects_off_simplex(bar):
    with pytest.raises(ValueError, match="off-simplex"):
        gf.embed_profile(bar, [0.7, 1.2])
    with pytest.raises(ValueError, match="off-simplex"):
        gf.embed_profile(bar, [-0.1, 0.5])
    # inside the tolerance band it clamps and renormalizes
    s = gf.embed_profile(bar, [1.0 + 1e-12, 0.5])
    assert s.blocks[0].tolist() == [1.0, 0.0]


def test_project_to_simplex_examples():
    fixed = gf.project_to_simplex([1 / 3, 1 / 3, 1 / 3])
    assert fixed == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)
    assert gf.project_to_simplex([2.0, 0.0, 0.0]).tolist() == [1.0, 0.0, 0.0]
    assert gf.project_to_simplex([0.6, 0.6, 0.0]) == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)


def test_project_to_simplex_matches_grid_search():
    rng = np.random.default_rng(29)
    for _ in range(5):
        v = rng.uniform(-1.0, 1.5, size=3)
        ours = gf.project_to_simplex(v)
        brute = grid_project(v, steps=120)
        assert ours == pytest.approx(brute, abs=2.0 / 120)
        assert abs(ours.sum() - 1.0) <= 1e-12
        assert ours.min() >= 0.0
        twice = gf.project_to_simplex(ours)
        assert np.array_equal(twice, ours)


def test_project_to_simplex_errors():
    with pytest.raises(ValueError):
        gf.project_to_simplex([])
    with pytest.raises(ValueError):
        gf.project_to_simplex([np.nan, 0.0])


def test_strategy_profile_validation():
    with pytest.raises(ValueError, match="off-simplex"):
        gf.StrategyProfile([[0.5, 0.6]])
    with pytest.raises(ValueError, match="off-simplex"):
        gf.StrategyProfile([[1.2, -0.2]])
    with pytest.raises(ValueError):
        gf.StrategyProfile([[np.inf, 0.0]])
    s = gf.StrategyProfile([[0.25, 0.75], [1.0, 0.0]])
    assert s.shape == (2, 2)
    with pytest.raises(ValueError):
        s.blocks[0][0] = 0.9  # read-only


def test_ops_reject_mismatched_profile(rps, bar):
    u = gf.uniform_profile(bar)
    with pytest.raises(ValueError, match="does not match"):
        gf.total_payoff(rps, u)
    with pytest.raises(IndexError):
        gf.expected_payoff(bar, u, 2)
