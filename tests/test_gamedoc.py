import json

import numpy as np
import pytest

import gamefibers as gf
from gamefibers.gamedoc import GameFormatError, format_number


BAR_DOC = """{
  "players": [
    {"name": "man1", "strategies": ["M", "A"]},
    {"name": "man2", "strategies": ["M", "A"]}
  ],
  "payoffs": [
    {"profile": [0, 0], "values": [0, 0]},
    {"profile": [0, 1], "values": [1, -1]},
    {"profile": [1, 0], "values": [-1, 1]},
    {"profile": [1, 1], "values": [0, 0]}
  ]
}
"""


def test_bar_document_is_canonical(bar):
    assert gf.write_game(bar) == BAR_DOC.encode()
    assert gf.parse_game(BAR_DOC.encode()) == bar


def test_parse_accepts_non_canonical_layout(bar):
    scrambled = (
        '{"payoffs": [{"profile": [1, 1], "values": [0, 0]},'
        '{"profile": [0, 1], "values": [1, -1]},'
        '{"profile": [0, 0], "values": [0, 0]},'
        '{"profile": [1, 0], "values": [-1, 1]}],'
        '"players": [{"name": "man1", "strategies": ["M", "A"]},'
        '{"name": "man2", "strategies": ["M", "A"]}]}'
    )
    assert gf.parse_game(scrambled) == bar


def test_round_trip_fixtures(rps, bar):
    for g in (rps, bar):
        doc = gf.write_game(g)
        assert gf.parse_game(doc) == g
        assert gf.write_game(gf.parse_game(doc)) == doc


def test_round_trip_random_games():
    for seed in range(30):
        n = 2 + seed % 2
        m = [2 + (seed + j) % 3 for j in range(n)]
        g = gf.random_game(n, m, seed=seed, zero_sum=(seed % 2 == 0),
                           jointly_affine=(seed % 3 == 0))
        doc = gf.write_game(g)
        parsed = gf.parse_game(doc)
        assert parsed == g
        assert gf.write_game(parsed) == doc


def test_number_formatting():
    assert format_number(-1.0) == "-1"
    assert format_number(0.0) == "0"
    assert format_number(2.5) == "2.5"
    assert format_number(1 / 3) == "0.3333333333333333"
    assert float(format_number(0.1 + 0.2)) == 0.1 + 0.2


def test_meta_round_trip(bar):
    g = gf.GameSpec(bar.payoffs, bar.player_names, bar.strategy_labels,
                    meta={"source": "fixture", "tag": 3})
    doc = gf.write_game(g)
    parsed = gf.parse_game(doc)
    assert parsed.meta == {"source": "fixture", "tag": 3}
    assert gf.write_game(parsed) == doc


def test_parse_syntax_error_has_position():
    with pytest.raises(GameFormatError, match=r"line 1, column"):
        gf.parse_game(b'{"players": [,]}')


def test_parse_rejects_bad_documents():
    with pytest.raises(GameFormatError, match="not UTF-8"):
        gf.parse_game(b"\xff\xfe{}")
    with pytest.raises(GameFormatError, match="JSON object"):
        gf.parse_game(b"[1, 2]")
    with pytest.raises(GameFormatError, match="unexpected top-level"):
        gf.parse_game(b'{"players": [], "extra": 1}')
    with pytest.raises(GameFormatError, match="players"):
        gf.parse_game(b'{"players": [], "payoffs": []}')


def test_parse_rejects_bad_payoff_entries():
    head = '{"players": [{"name": "a", "strategies": ["x", "y"]},' \
           '{"name": "b", "strategies": ["x", "y"]}], "payoffs": ['
    dup = head + ('{"profile": [0, 0], "values": [1, 2]},' * 2)[:-1] + "]}"
    with pytest.raises(GameFormatError, match="duplicate profile"):
        gf.parse_game(dup)
    missing = head + '{"profile": [0, 0], "values": [1, 2]}]}'
    with pytest.raises(GameFormatError, match="missing profile"):
        gf.parse_game(missing)
    out_of_range = head + '{"profile": [0, 2], "values": [1, 2]}]}'
    with pytest.raises(GameFormatError, match="out of range"):
        gf.parse_game(out_of_range)
    short_values = head + '{"profile": [0, 0], "values": [1]}]}'
    with pytest.raises(GameFormatError, match="player count mismatch"):
        gf.parse_game(short_values)
    non_integer = head + '{"profile": [0.5, 0], "values": [1, 2]}]}'
    with pytest.raises(GameFormatError, match="integer"):
        gf.parse_game(non_integer)


def test_parse_names_first_missing_profile_and_rejects_huge_headers():
    head = '{"players": [{"name": "a", "strategies": ["x", "y"]},' \
           '{"name": "b", "strategies": ["x", "y"]}], "payoffs": ['
    doc = head + '{"profile": [1, 1], "values": [1, 2]}, {"profile": [0, 0], "values": [1, 2]}]}'
    with pytest.raises(GameFormatError, match=r"missing profile \[0, 1\] \(2 of 4"):
        gf.parse_game(doc)
    labels = json.dumps([f"s{j}" for j in range(101)])
    players = ", ".join(f'{{"name": "p{i}", "strategies": {labels}}}' for i in range(3))
    with pytest.raises(GameFormatError, match="game too large"):
        gf.parse_game('{"players": [' + players + '], "payoffs": []}')


def test_parse_keeps_non_finite_for_validation():
    doc = ('{"players": [{"name": "a", "strategies": ["x", "y"]},'
           '{"name": "b", "strategies": ["x"]}],'
           '"payoffs": [{"profile": [0, 0], "values": [1, Infinity]},'
           '{"profile": [1, 0], "values": [0, 0]}]}')
    g = gf.parse_game(doc)
    assert [d.code for d in gf.validate_game(g)] == ["non-finite payoff"]


def test_write_rejects_invalid_game():
    g = gf.GameSpec.from_entries((2, 2), [((0, 0), (0, 0))])
    with pytest.raises(ValueError, match="invalid game"):
        gf.write_game(g)


def test_builtin_bar_tensor(bar):
    assert bar.payoffs[0, 0].tolist() == [0.0, 0.0]
    assert bar.payoffs[0, 1].tolist() == [1.0, -1.0]
    assert bar.payoffs[1, 0].tolist() == [-1.0, 1.0]
    assert bar.payoffs[1, 1].tolist() == [0.0, 0.0]
    assert bar.strategy_labels == (("M", "A"), ("M", "A"))


def test_builtin_rps_is_rock_paper_scissors(rps):
    labels = rps.strategy_labels[0]
    assert labels == ("rock", "paper", "scissors")
    rock, paper, scissors = 0, 1, 2
    assert rps.payoffs[rock, scissors, 0] == 1.0    # rock crushes scissors
    assert rps.payoffs[paper, rock, 0] == 1.0       # paper covers rock
    assert rps.payoffs[scissors, paper, 0] == 1.0   # scissors cut paper
    assert all(rps.payoffs[i, i, 0] == 0.0 for i in range(3))
    assert gf.is_zero_sum(rps, tol=0.0)


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        gf.builtin_game("chess")


def test_random_game_determinism():
    a = gf.random_game(3, [2, 3, 2], seed=5, zero_sum=True)
    b = gf.random_game(3, [2, 3, 2], seed=5, zero_sum=True)
    assert gf.write_game(a) == gf.write_game(b)
    c = gf.random_game(3, [2, 3, 2], seed=6, zero_sum=True)
    assert gf.write_game(a) != gf.write_game(c)


def test_random_game_flags():
    zs = gf.random_game(2, [2, 2], seed=8, zero_sum=True)
    assert gf.is_zero_sum(zs, tol=1e-12)
    aff = gf.random_game(3, [2, 3, 2], seed=8, jointly_affine=True)
    assert gf.is_jointly_affine(aff)
    both = gf.random_game(3, [2, 3, 2], seed=8, zero_sum=True, jointly_affine=True)
    assert gf.is_zero_sum(both, tol=1e-12) and gf.is_jointly_affine(both)
    plain = gf.random_game(2, [4, 4], seed=8)
    assert np.all(np.abs(plain.payoffs) <= 1.0)


def test_random_game_argument_errors():
    with pytest.raises(ValueError, match="at least 2 players"):
        gf.random_game(1, [2], seed=0)
    with pytest.raises(ValueError, match="strategy counts"):
        gf.random_game(2, [2], seed=0)
    with pytest.raises(ValueError, match="at least 2 pure strategies"):
        gf.random_game(2, [2, 1], seed=0)
    with pytest.raises(ValueError, match="game too large"):
        gf.random_game(2, [1001, 1001], seed=0)
