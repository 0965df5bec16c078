import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gamefibers as gf
from gamefibers import gamedoc
from gamefibers.gamedoc import GameFormatError, format_number
from helpers import reference_parse_game, reference_write_game


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
        assert doc == reference_write_game(g)
        parsed = gf.parse_game(doc)
        assert parsed == g
        assert gf.write_game(parsed) == doc


def test_number_formatting():
    assert format_number(-1.0) == "-1"
    assert format_number(0.0) == "0"
    assert format_number(2.5) == "2.5"
    assert format_number(1 / 3) == "0.3333333333333333"
    assert float(format_number(0.1 + 0.2)) == 0.1 + 0.2
    assert format_number(-0.0) == "0"
    assert format_number(2.0 ** 53) == "9007199254740992"
    assert format_number(-(2.0 ** 53 + 2)) == "-9007199254740994.0"
    assert format_number(1e308) == "1e+308"
    assert format_number(5e-324) == "5e-324"


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
    with pytest.raises(GameFormatError, match="player 0 needs a string name"):
        gf.parse_game(b'{"players": [{"name": 1, "strategies": ["x"]}], "payoffs": []}')
    with pytest.raises(GameFormatError, match="player 0 needs a nonempty list of strategy labels"):
        gf.parse_game(b'{"players": [{"name": "a", "strategies": []}], "payoffs": []}')
    with pytest.raises(GameFormatError, match='"payoffs" must be a list'):
        gf.parse_game(b'{"players": [{"name": "a", "strategies": ["x"]}], "payoffs": {}}')


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
    payoffs = np.zeros((2, 2, 2))
    payoffs[1, 1, 0] = np.nan
    g = gf.GameSpec(payoffs)
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


EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.0 ** 53 - 1,
               2.0 ** 53, 2.0 ** 53 + 2, -(2.0 ** 53 + 2), 1e308, -1e308, 0.1,
               1e16, -7.0, 2.0 ** 52 - 0.5, -(2.0 ** 53)]


@st.composite
def finite_games(draw):
    n = draw(st.integers(2, 3))
    m = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    size = int(np.prod(m)) * n
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                           | st.sampled_from(EDGE_FLOATS),
                           min_size=size, max_size=size))
    return gf.GameSpec(np.array(values).reshape(m + (n,)))


@settings(max_examples=200, deadline=None)
@given(finite_games(), st.sampled_from([1, 2, 3, 4096]))
def test_write_parse_write_is_byte_identical(g, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gamedoc, "_CHUNK", chunk)
        doc = gf.write_game(g)
        assert doc == reference_write_game(g)
        parsed = gf.parse_game(doc)
        assert np.array_equal(parsed.payoffs, g.payoffs)
        assert gf.write_game(parsed) == doc


def test_integer_payoffs_parse_to_their_float():
    ints = [2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 53 + 3, 2 ** 63 + 5,
            -(2 ** 70) + 3, 10 ** 300, 2 ** 1024 - 2 ** 970 - 1, 7]
    entries = ", ".join(
        f'{{"profile": [{i}, {j}], "values": [{ints[4 * i + 2 * j]}, {ints[4 * i + 2 * j + 1]}]}}'
        for i in range(2) for j in range(2))
    g = gf.parse_game(TWO_BY_TWO + entries + "]}")
    assert g.payoffs.ravel().tolist() == [float(x) for x in ints]


TWO_BY_TWO = ('{"players": [{"name": "a", "strategies": ["x", "y"]},'
              '{"name": "b", "strategies": ["x", "y"]}], "payoffs": [')


def _doc(*entries, meta=None):
    tail = "]" + (f', "meta": {meta}' if meta is not None else "") + "}"
    return TWO_BY_TWO + ", ".join(
        e if isinstance(e, str) else
        json.dumps({"profile": e[0], "values": e[1]}) for e in entries) + tail


@pytest.mark.parametrize("doc, message", [
    # type and structure errors, in entry order, before range/duplicate errors
    (_doc(([0, 0], [1, 2]), ([0, True], [1, 2]), ([1, 0], ["a", 2]), ([5, 5], [1, 2])),
     "payoff entry 1: strategy index must be an integer, got True"),
    (_doc(([0, 0], [1, 2]), ([False, 0], ["a"])),
     "payoff entry 1: strategy index must be an integer, got False"),
    (_doc(([9, 9], [1, 2]), ([0, 1.5], [1, 2])),
     "payoff entry 1: strategy index must be an integer, got 1.5"),
    (_doc(([0, 0], [1, 2]), ([0, 1], [1, None]), ([True, 0], [1, 2])),
     "payoff entry 1: value must be a number, got None"),
    (_doc(([0, 0], [1, 2]), ([0, 1], [True, 0]), ([1, 0], [1]), ([0, 0], [1, 2])),
     "payoff entry 1: value must be a number, got True"),
    (_doc(([0, 0], [1, "2"]), ([0, 1], [1, 2])),
     "payoff entry 0: value must be a number, got '2'"),
    (_doc(([0, 0], [1, 2]), ([0, 1], [1]), ([0, 0.5], [1, 2])),
     "payoff entry 1: player count mismatch in values (got 1, need 2)"),
    (_doc(([0, 0], [1, 2]), ([0, 1], {"v": 1}), ([0, 0.5], [1, 2])),
     "payoff entry 1: player count mismatch in values (got non-list, need 2)"),
    (_doc(([0, 0], [1, 2]), ([0], [1, 2]), ([0, True], [1, 2])),
     "payoff entry 1: profile must list 2 strategy indices"),
    (_doc(([0, 0], [1, 2]), ([0, 1], [1, "x"]), "[]"),
     "payoff entry 1: value must be a number, got 'x'"),
    (_doc(([0, 0], [1, 2]), '{"profile": [0, 1]}', ([0, True], [1, 2])),
     "payoff entry 1 must have exactly profile and values"),
    (_doc(([0, 2], [1, 2]), ([0, 1], [1, 2]), meta="[]"), '"meta" must be an object'),
    # range and duplicate errors, in entry order
    (_doc(([0, 0], [1, 2]), ([0, 2], [1, 2]), ([0, 0], [1, 2])),
     "profile (0, 2): strategy index 2 out of range for player 1"),
    (_doc(([0, 0], [1, 2]), ([-1, 0], [1, 2]), ([0, 0], [1, 2])),
     "profile (-1, 0): strategy index -1 out of range for player 0"),
    (_doc(([0, 0], [1, 2]), ([10 ** 30, 5], [1, 2])),
     f"profile ({10 ** 30}, 5): strategy index {10 ** 30} out of range for player 0"),
    (_doc(([0, 0], [1, 2]), ([1, 1], [1, 2]), ([0, 0], [1, 2]), ([0, 5], [1, 2])),
     "duplicate profile (0, 0)"),
    (_doc(([0, 0], [1, 2]), ([1, 1], [1, 2]), ([1, 1], [1, 2]), ([0, 0], [1, 2])),
     "duplicate profile (1, 1)"),
    (_doc(([1, 1], [1, 2]), ([1, 0], [1, 2])),
     "missing profile [0, 0] (2 of 4 profiles absent)"),
    (_doc(([0, 0], [1, 2]), ([1, 0], [1, 2]), ([1, 1], [1, 2])),
     "missing profile [0, 1] (1 of 4 profiles absent)"),
    (_doc(), "missing profile [0, 0] (4 of 4 profiles absent)"),
], ids=["bool-index", "index-before-values-length", "float-index-before-range",
        "null-value", "bool-value", "string-value", "values-length", "values-not-list",
        "profile-length", "value-before-non-object", "missing-key", "meta-before-range",
        "out-of-range", "negative-index", "huge-index", "duplicate", "first-duplicate",
        "first-missing", "one-missing", "no-entries"])
def test_parse_names_first_failing_entry(doc, message):
    with pytest.raises(GameFormatError) as info:
        gf.parse_game(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("doc, message", [
    (_doc(([0, 0], [1, 2]), f'{{"profile": [0, 1], "values": [1, 1{"0" * 400}]}}'),
     "payoff entry 1: integer value too large for a float"),
    (_doc(([0, 0], [1, 2]), f'{{"profile": [0, 1], "values": [1, 1{"0" * 400}]}}',
          ([0, True], [1, 2])),
     "payoff entry 1: integer value too large for a float"),
    (_doc(([0, 0], [-(2 ** 1024), 2])), "payoff entry 0: integer value too large for a float"),
    (_doc(([0, 0], [1, 2]), ([0, 1], [1, 2 ** 1024]), ([1, 0], [1, "2"])),
     "payoff entry 1: integer value too large for a float"),
    (_doc(([0, 0], [1, "2"]), ([0, 1], [1, 2 ** 1024])),
     "payoff entry 0: value must be a number, got '2'"),
    ("[" * 100_000 + "]" * 100_000, "parse error: document nested too deeply"),
    ('{"players": [' + ", ".join([json.dumps({"name": "p", "strategies": list("abcdefghij")})] * 6)
     + '], "payoffs": []}',
     "missing profile [0, 0, 0, 0, 0, 0] (1000000 of 1000000 profiles absent)"),
    ('{"meta": ' + "{\"a\": " * 100_000 + "1" + "}" * 100_001,
     "parse error: document nested too deeply"),
    (_doc(([0, 0], [1, 2]), f'{{"profile": [0, 1], "values": [1, {"1" * 5000}]}}'),
     "parse error: Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
], ids=["overflow", "overflow-before-bool-index", "negative-overflow",
        "overflow-before-string", "string-before-overflow", "deep-list",
        "million-profiles-none-given", "deep-meta", "5000-digit-integer"])
def test_hostile_documents_raise_format_errors(doc, message):
    with pytest.raises(GameFormatError) as info:
        gf.parse_game(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("doc", [
    BAR_DOC,
    b'{"players": [,]}',
    "[" * 100_000 + "]" * 100_000,
    b"\xff\xfe{}",
    _doc(([0, 0], [1, 2]), '{"profile": [0, 1]}'),
    _doc(([1, 1], [1, 2]), ([1, 0], [1, 2])),
], ids=["valid", "syntax", "nested-too-deeply", "not-utf-8", "structure", "missing-profile"])
def test_parse_leaves_the_collector_as_it_found_it(doc, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            gf.parse_game(doc)
        except GameFormatError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


ODD_INDICES = [True, False, 1.5, "0", None, -1, 7, 10 ** 30, [0], {}]
ODD_VALUES = [True, "x", None, 10 ** 20, 2 ** 1024, -(10 ** 400), float("nan"),
              float("inf"), -float("inf"), [1], {"v": 1}, 2 ** 53 + 1, -0.0]


def _layout(pairs, layout):
    """Top-level (key, value) pairs as JSON text, repeated keys kept: minified,
    indented, or with the payoffs array in the writer's layout."""
    if layout == "minified":
        dump = lambda v: json.dumps(v, separators=(",", ":"))
        return "{" + ",".join(dump(k) + ":" + dump(v) for k, v in pairs) + "}"
    if layout == "indented":
        return "{\n" + ",\n".join(
            "  " + json.dumps(k) + ": " + json.dumps(v, indent=3).replace("\n", "\n  ")
            for k, v in pairs) + "\n}\n"
    def field(k, v):
        if k == "payoffs" and isinstance(v, list) and v:
            return '  "payoffs": [\n    ' + ",\n    ".join(map(json.dumps, v)) + "\n  ]"
        return "  " + json.dumps(k) + ": " + json.dumps(v)
    return "{\n" + ",\n".join(field(k, v) for k, v in pairs) + "\n}\n"


@st.composite
def mutated_documents(draw):
    """A canonical document of a small game, mutated in its entries, its
    top-level keys, its layout and its bytes (truncated, or one structural
    character dropped)."""
    n = draw(st.integers(2, 3))
    m = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    size = int(np.prod(m)) * n
    values = draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, 1 / 3, 2.0 ** 53 + 2, 1e308]),
                           min_size=size, max_size=size))
    data = json.loads(gf.write_game(gf.GameSpec(np.array(values).reshape(m + (n,)))))
    entries = data["payoffs"]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(entries) - 1)) if entries else 0
        op = draw(st.sampled_from(["drop", "repeat", "index", "value", "entry",
                                   "short-profile", "short-values", "swap"]))
        if not entries or op not in ("drop", "repeat") and not (
                isinstance(entries[k], dict) and entries[k].keys() == {"profile", "values"}):
            continue
        if op == "drop":
            del entries[k]
        elif op == "repeat":
            entries.insert(draw(st.integers(0, len(entries))), entries[k])
        elif op in ("index", "value"):
            key, odd = ("profile", ODD_INDICES) if op == "index" else ("values", ODD_VALUES)
            entries[k] = dict(entries[k])
            row = entries[k][key] = list(entries[k][key])
            if row:
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(odd))
        elif op == "entry":
            entries[k] = draw(st.sampled_from([
                [], "entry", 3, None, {}, {"profile": entries[k]["profile"]},
                {"values": entries[k]["values"]}, {**entries[k], "extra": 1}]))
        elif op == "short-profile":
            entries[k] = {"profile": entries[k]["profile"][1:], "values": entries[k]["values"]}
        elif op == "short-values":
            entries[k] = {"profile": entries[k]["profile"], "values": entries[k]["values"][1:]}
        else:   # the keys of an entry in the other order
            entries[k] = {"values": entries[k]["values"], "profile": entries[k]["profile"]}
    pairs = [("players", data["players"]), ("payoffs", entries)]
    if draw(st.booleans()):
        pairs.append(("meta", draw(st.sampled_from([{"source": "test"}, None, [], "x"]))))
    pairs = draw(st.permutations(pairs))
    for _ in range(draw(st.integers(0, 2))):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from([
            ("payoffs", entries[:-1]), ("payoffs", {}), ("players", data["players"][:-1]),
            ("players", data["players"] + data["players"][:1]), ("meta", {"a": [1, {}]}),
            ("extra", 1)])))
    doc = _layout(pairs, draw(st.sampled_from(["minified", "indented", "writer"]))).encode()
    cut = draw(st.integers(0, len(doc)))
    mark = draw(st.sampled_from([i for i, c in enumerate(doc) if c in b'{}[],:"']))
    doc = draw(st.sampled_from([doc, doc, doc[:cut], doc[:mark] + doc[mark + 1:]]))
    if draw(st.integers(0, 9)) == 0:
        doc = b"\xef\xbb\xbf" + doc
    return doc if draw(st.booleans()) else doc.decode("utf-8", errors="replace")


def _outcome(parse, doc):
    try:
        return parse(doc)
    except GameFormatError as exc:
        return str(exc)


ENTRY_01 = '{"profile": [0, 1], "values": [1, -1]}'


@pytest.mark.parametrize("doc", [
    "", "   ", "{", '{"players"', "{}", "[]", BAR_DOC + "x", BAR_DOC + "{}",
    "\ufeff" + BAR_DOC, b"\xef\xbb\xbf" + BAR_DOC.encode(),
    BAR_DOC.replace("],", "]", 1),
    BAR_DOC.replace('"payoffs":', '"payoffs"'),
    BAR_DOC.replace(ENTRY_01 + ",", ENTRY_01),
    BAR_DOC.replace(ENTRY_01 + ",", ENTRY_01 + ",,"),
    BAR_DOC.replace(ENTRY_01 + ",\n    ", ENTRY_01 + ",\n     \n\t"),
    BAR_DOC.replace('[0, 0]}\n  ]', '[0, 0]},\n  ]'),
    BAR_DOC.replace('[0, 0]}\n  ]', '[0, 0]},\n    ]'),
    BAR_DOC.replace(ENTRY_01 + ",\n    ", ENTRY_01 + ",\n    ]"),
    BAR_DOC[:BAR_DOC.index(ENTRY_01) + len(ENTRY_01)],
    BAR_DOC[:BAR_DOC.index(ENTRY_01) + len(ENTRY_01) + 1],
    BAR_DOC.replace('"payoffs": [', '"payoffs": [ ]'),
    BAR_DOC.replace('"payoffs": [', '"payoffs": [\n  ], "payoffs": ['),
    '{"payoffs": [' + ENTRY_01 + '], "players": [{"name": "a", "strategies": ["x"]}]}',
], ids=["empty", "blank", "open", "key-only", "empty-object", "array", "extra-data",
        "second-object", "bom", "utf-8-bom", "no-comma-after-players", "no-colon",
        "no-comma-between-entries", "double-comma", "spaced-separator", "trailing-comma",
        "trailing-comma-indented", "comma-then-close", "cut-after-entry",
        "cut-after-comma", "closed-early", "payoffs-twice", "payoffs-before-players"])
def test_parse_errors_match_the_tree_parser(doc):
    assert _outcome(gf.parse_game, doc) == _outcome(reference_parse_game, doc)


@settings(max_examples=400, deadline=None)
@given(mutated_documents(), st.sampled_from([1, 2, 3, 4096]))
def test_parse_matches_the_tree_parser(doc, chunk):
    expected = _outcome(reference_parse_game, doc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gamedoc, "_CHUNK", chunk)
        got = _outcome(gf.parse_game, doc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, gf.GameSpec)
        assert np.array_equal(got.payoffs, expected.payoffs, equal_nan=True)
        assert (got.player_names, got.strategy_labels, got.meta) == (
            expected.player_names, expected.strategy_labels, expected.meta)


def test_round_trip_streams_in_chunks(monkeypatch):
    """A document of five chunks: written as the row-by-row writer writes it,
    parsed back exactly, and neither direction holds more than three times
    the document's bytes at its peak (no whole parse tree, no whole list of
    value strings)."""
    monkeypatch.setattr(gamedoc, "_CHUNK", 2_000)
    g = gf.random_game(4, [10] * 4, seed=3, zero_sum=True)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        doc = gf.write_game(g)
        write_peak = tracemalloc.get_traced_memory()[1] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        parsed = gf.parse_game(doc)
        parse_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert doc == reference_write_game(g)
    assert parsed == g
    assert write_peak <= 3 * len(doc)
    assert parse_peak <= 3 * len(doc)
