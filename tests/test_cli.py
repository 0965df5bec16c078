import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import gamefibers as gf
from gamefibers.cli import _profile_str, run

GOLDEN = Path(__file__).parent / "golden"
TRACE = {"--start": "uniform", "--direction": "0", "--step": "0.05", "--steps": "5"}


def cli(*argv, stdin=b""):
    return run(list(argv), read_stdin=lambda: stdin)


@pytest.fixture
def bar_doc(bar):
    return gf.write_game(bar)


@pytest.fixture
def rps_doc(rps):
    return gf.write_game(rps)


def test_gen_builtin_round_trip(bar_doc):
    code, out, err = cli("gen", "--builtin", "bar")
    assert (code, err) == (0, "")
    assert out == bar_doc


def test_gen_random_deterministic():
    a = cli("gen", "--random", "n=2", "m=3,2", "seed=4", "--zero-sum")
    b = cli("gen", "--random", "n=2", "m=3,2", "seed=4", "--zero-sum")
    assert a == b and a[0] == 0
    g = gf.parse_game(a[1])
    assert gf.is_zero_sum(g, tol=1e-12)
    c = cli("gen", "--random", "n=2", "m=3,2", "seed=4", "--affine")
    assert gf.is_jointly_affine(gf.parse_game(c[1]))


@pytest.mark.parametrize("name, argv", [
    ("rps", ["--builtin", "rps"]),
    ("3x3_affine_seed0", ["--random", "n=3", "m=3,3,3", "seed=0", "--affine"]),
])
def test_gen_matches_golden(name, argv):
    # integral payoffs (rps) and shortest round-trip decimals (the affine game)
    code, out, err = cli("gen", *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"gen_{name}.json").read_bytes()


def test_gen_usage_errors():
    assert cli("gen")[0] == 2
    assert cli("gen", "--random", "n=2")[0] == 2
    assert cli("gen", "--random", "n=two", "m=2,2")[0] == 2
    assert cli("gen", "--builtin", "bar", "--random")[0] == 2
    code, _, err = cli("gen", "--builtin", "checkers")
    assert code == 2 and "invalid choice" in err


def test_unknown_parameters_and_empty_entries_are_one_line_errors(bar_doc):
    assert cli("gen", "--random", "n=2", "m=3,3", "foo=1") == (
        2, b"", "gen: unknown parameter 'foo=1' (use n=, m=, seed=)\n")
    assert cli("eval", "--profile", "0.5,;1,0", stdin=bar_doc) == (
        1, b"", "error: empty probability entry in profile\n")


def test_validate_ok_and_defects(bar_doc):
    code, out, err = cli("validate", stdin=bar_doc)
    assert (code, out) == (0, b"ok\n")
    bad = bar_doc.replace(b'"values": [0, 0]}', b'"values": [0, Infinity]}', 1)
    code, out, _ = cli("validate", stdin=bad)
    assert code == 1
    assert b"non-finite payoff" in out
    code, out, _ = cli("validate", "--json", stdin=bar_doc)
    assert code == 0 and json.loads(out) == {"ok": True, "defects": []}


@pytest.fixture
def bar_nan_doc(bar_doc):
    return bar_doc.replace(b'"values": [0, 0]}', b'"values": [0, NaN]}', 1)


NAN_DEFECT = ("non-finite payoff: payoff to player 1 at profile (0, 0) is nan "
              "(1 of 8 payoff entries non-finite)")


def test_validate_non_finite_message(bar_nan_doc):
    assert cli("validate", stdin=bar_nan_doc) == (1, f"{NAN_DEFECT}\n".encode(), "")


@pytest.mark.parametrize("argv", [
    ("eval", "--profile", "uniform"), ("analyze",), ("equilibria",),
    ("trace", *[x for item in TRACE.items() for x in item]),
], ids=lambda argv: argv[0])
def test_commands_refuse_an_invalid_game(bar_nan_doc, argv):
    assert cli(*argv, stdin=bar_nan_doc) == (1, b"", f"error: invalid game: {NAN_DEFECT}\n")


def test_validate_parse_error_exit_code():
    code, _, err = cli("validate", stdin=b"{not json")
    assert code == 1
    assert "parse error" in err


def test_hostile_documents_exit_1(bar_doc):
    huge = bar_doc.replace(b'"values": [1, -1]', b'"values": [1' + b"0" * 400 + b", -1]")
    deep = b"[" * 100_000 + b"]" * 100_000
    for doc in (huge, deep):
        code, out, err = cli("validate", stdin=doc)
        assert (code, out) == (1, b"")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_files_exit_1(tmp_path):
    for path in (tmp_path / "absent.json", tmp_path):
        code, out, err = cli("validate", str(path))
        assert (code, out) == (1, b"")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


def test_eval_uniform_and_explicit(rps_doc, bar_doc):
    code, out, _ = cli("eval", "--profile", "uniform", stdin=rps_doc)
    assert code == 0
    assert out == b"player1: 0\nplayer2: 0\n"
    code, out, _ = cli("eval", "--profile", "1,0; 0,1", stdin=bar_doc)
    assert code == 0
    assert out == b"man1: 1\nman2: -1\n"
    code, out, _ = cli("eval", "--json", "--profile", "0.25,0.75; 0.5,0.5",
                       stdin=bar_doc)
    payload = json.loads(out)
    assert payload["payoffs"] == pytest.approx([-0.25, 0.25])


def test_eval_rejects_off_simplex_profile(bar_doc):
    code, _, err = cli("eval", "--profile", "0.6,0.6; 1,0", stdin=bar_doc)
    assert code == 1 and "off-simplex" in err
    code, _, err = cli("eval", "--profile", "1,0", stdin=bar_doc)
    assert code == 1 and "blocks" in err


def test_analyze_matches_golden(bar_doc, rps_doc):
    code, out, _ = cli("analyze", stdin=bar_doc)
    assert code == 0
    assert out == (GOLDEN / "analyze_bar.txt").read_bytes()
    code, out, _ = cli("analyze", stdin=rps_doc)
    assert code == 0
    assert out == (GOLDEN / "analyze_rps.txt").read_bytes()


def test_analyze_json_matches_golden(bar_doc, rps_doc):
    for name, doc in (("bar", bar_doc), ("rps", rps_doc)):
        code, out, err = cli("analyze", "--json", stdin=doc)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"analyze_{name}.json").read_bytes()


def test_analyze_json_agreement(bar_doc):
    code, out, _ = cli("analyze", "--json", stdin=bar_doc)
    info = json.loads(out)
    assert info["zero_sum"] and info["jointly_affine"]
    assert info["generic_rank"] == info["affine"]["rank"] == 1
    assert info["generic_fiber_dimension"] == 1
    assert info["affine"]["dimension_bound"] == 1
    assert info["affine"]["bound_satisfied"] is True


def test_analyze_affinity_does_not_depend_on_the_payoff_scale():
    g = gf.random_game(3, [4] * 3, 0, jointly_affine=True)
    reports = []
    for scale in (1.0, 1e9):
        code, out, _ = cli("analyze", "--json", stdin=gf.write_game(gf.GameSpec(scale * g.payoffs)))
        assert code == 0
        reports.append(json.loads(out))
    for info in reports:
        assert info["jointly_affine"] is True
        assert info["affine"]["rank"] == reports[0]["affine"]["rank"] == 3
        assert info["affine"]["nullity"] == reports[0]["affine"]["nullity"] == 6


def test_analyze_deterministic(rps_doc):
    runs = {cli("analyze", "--samples", "32", "--seed", "9", stdin=rps_doc)
            for _ in range(3)}
    assert len(runs) == 1


def test_equilibria_bar(bar_doc, bar):
    code, out, _ = cli("equilibria", stdin=bar_doc)
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "pure: M,M epsilon=0"
    labels = lines[0].split()[1].split(",")
    vertex = [[bar.label(i, j) for j in range(bar.m[i])].index(label)
              for i, label in enumerate(labels)]
    assert lines[-1].startswith(f"search: {_profile_str(gf.pure_profile(bar, vertex))} ")
    assert any(line.startswith("mixed: 1,0; 1,0") for line in lines)
    assert lines[-1].startswith("search: ")
    assert "converged=yes" in lines[-1]
    for line in lines:
        assert " epsilon=" in line
        assert float(line.rsplit("epsilon=", 1)[1]) <= 1e-6


def test_equilibria_rps_json(rps_doc):
    code, out, _ = cli("equilibria", "--json", stdin=rps_doc)
    data = json.loads(out)
    assert data["pure"] == []
    assert len(data["mixed"]) == 1
    assert data["mixed"][0]["blocks"][0] == pytest.approx([1 / 3] * 3, abs=1e-9)
    assert data["search"]["converged"] is True
    assert data["search"]["epsilon"] <= 1e-6


def test_equilibria_json_matches_golden():
    # 3 pure and 9 mixed equilibria of a 6x6 game, where support enumeration
    # prunes most support pairs by dominance before solving them
    code, doc, err = cli("gen", "--random", "n=2", "m=6,6", "seed=9")
    assert (code, err) == (0, "")
    code, out, err = cli("equilibria", "--json", stdin=doc)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "equilibria_2x6_seed9.json").read_bytes()


def test_equilibria_json_matches_the_non_square_golden():
    # a 5x7 game: the dominance table indexes each player's supports on its
    # own, which a square game cannot tell apart from a transposed index
    code, doc, err = cli("gen", "--random", "n=2", "m=5,7", "seed=0")
    assert (code, err) == (0, "")
    code, out, err = cli("equilibria", "--json", stdin=doc)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "equilibria_5x7_seed0.json").read_bytes()


def test_equilibria_json_matches_the_four_player_golden():
    # no vertex of this 4x4^4 game is an equilibrium, and the two-mixer
    # stage answers it: players 0 and 1 mix on two strategies each
    code, doc, err = cli("gen", "--random", "n=4", "m=4,4,4,4", "seed=3")
    assert (code, err) == (0, "")
    code, out, err = cli("equilibria", "--json", stdin=doc)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "equilibria_4x4_seed3.json").read_bytes()


def test_overflowing_payoff_differences_are_quiet(capfd):
    # player 0's gains reach 3.4e308, past the float range: read as inf
    payoffs = np.zeros((2, 2, 2))
    payoffs[..., 0] = [[1.7e308, -1.7e308], [-1.7e308, 1.7e308]]
    doc = gf.write_game(gf.GameSpec(payoffs))
    code, out, err = cli("equilibria", stdin=doc)
    assert (code, err) == (0, "")
    assert out.decode().splitlines()[-1] == "search: 1,0; 1,0 converged=yes epsilon=0"
    # a sample whose sweep passes the float range is ranked on the payoffs
    # times 2^-e, as bar times 1.7e308 is
    code, out, err = cli("analyze", stdin=doc)
    assert (code, err) == (0, "")
    assert "generic rank: 1\n" in out.decode()
    assert capfd.readouterr().err == ""


def test_overflowing_gains_stop_a_search_start(capfd):
    # every vertex gap is inf, so the search iterates; the seed-0 restart 2
    # starts at a profile whose gain overflows, which stops that start, and
    # the best profile found so far (the uniform start) stands
    payoffs = np.zeros((2, 2, 2))
    payoffs[..., 0] = [[1.7e308, -1.7e308], [-1.7e308, 1e308]]
    payoffs[..., 1] = -payoffs[..., 0]
    doc = gf.write_game(gf.GameSpec(payoffs))
    code, out, err = cli("equilibria", stdin=doc)
    assert (code, err) == (0, "")
    assert out.decode().splitlines()[-1].startswith("search: 0.5,0.5; 0.5,0.5 converged=no ")
    code, out, err = cli("equilibria", "--json", stdin=doc)
    assert (code, err) == (0, "")
    search = json.loads(out)["search"]
    assert search["blocks"] == [[0.5, 0.5], [0.5, 0.5]]
    assert search["converged"] is False and search["epsilon"] > 1e307
    assert capfd.readouterr().err == ""


def test_trace_bar(bar_doc):
    code, out, _ = cli("trace", "--start", "0.5,0.5; 0.5,0.5", "--direction", "0",
                       "--step", "0.05", "--steps", "200", stdin=bar_doc)
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[-1] == "terminated: boundary"
    assert float(lines[-2].split(": ")[1]) <= 1e-14
    count = int(lines[-3].split(": ")[1])
    assert count == len(lines) - 3
    x, y = map(float, lines[0].split())
    assert (x, y) == (0.5, 0.5)


def test_trace_json_matches_golden(bar_doc, rps_doc):
    # the geometry half byte for byte: rps ends at the boundary after 17
    # points, bar after 36, and the 4x6^4 seed-1 game takes its 50 steps,
    # the corrector iterating on every one
    code, doc, _ = cli("gen", "--random", "n=4", "m=6,6,6,6", "seed=1")
    assert code == 0
    for name, doc, step, steps in (("rps", rps_doc, "0.02", "100"), ("bar", bar_doc, "0.02", "100"),
                                   ("4x6_seed1", doc, "0.001", "50")):
        code, out, err = cli("trace", "--start", "uniform", "--direction", "0", "--step", step,
                             "--steps", steps, "--json", stdin=doc)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"trace_{name}.json").read_bytes()


def test_trace_json_and_errors(rps_doc):
    code, out, _ = cli("trace", "--json", "--start", "uniform", "--direction", "1",
                       "--step", "0.02", "--steps", "10", stdin=rps_doc)
    data = json.loads(out)
    assert data["terminated"] in {"boundary", "step_budget"}
    assert data["drift"] <= 1e-8
    assert all(len(p) == 4 for p in data["points"])
    code, _, err = cli("trace", "--start", "uniform", "--direction", "9",
                       "--step", "0.02", "--steps", "10", stdin=rps_doc)
    assert code == 1 and "invalid direction" in err


def test_file_argument(tmp_path, bar_doc):
    path = tmp_path / "bar.json"
    path.write_bytes(bar_doc)
    code, out, _ = cli("validate", str(path))
    assert (code, out) == (0, b"ok\n")
    code, _, err = cli("validate", str(tmp_path / "absent.json"))
    assert code == 1 and "error" in err


def test_pipe_composition():
    code, doc, _ = cli("gen", "--random", "n=2", "m=2,2", "seed=3", "--affine",
                       "--zero-sum")
    assert code == 0
    code, out, _ = cli("analyze", stdin=doc)
    assert code == 0
    text = out.decode()
    assert "jointly affine: yes" in text
    assert "zero-sum: yes" in text
    # exact and sampled rank paths agree on affine games
    lines = dict(line.split(": ", 1) for line in text.splitlines())
    assert lines["generic rank"] == lines["affine rank"]


def test_help_exits_zero():
    code, out, err = cli("--help")
    assert code == 0 and b"usage" in out.lower() and err == ""
    assert cli()[0] == 2


@pytest.mark.parametrize("command, flag, value", [
    ("trace", "--step", "nan"),
    ("trace", "--step", "inf"),
    ("trace", "--steps", "-5"),
    ("trace", "--steps", "1000000000000"),
    ("trace", "--steps", "10001"),
    ("trace", "--tol", "nan"),
    ("trace", "--tol", "-inf"),
    ("trace", "--tol", "-1"),
    ("equilibria", "--eps", "-1"),
    ("equilibria", "--eps", "nan"),
    ("analyze", "--samples", "0"),
    ("analyze", "--samples", "x"),
    ("analyze", "--samples", "4097"),
    ("analyze", "--seed", "-1"),
    ("equilibria", "--seed", "-1"),
    ("trace", "--direction", "-1"),
])
def test_bad_numbers_exit_2_with_usage(command, flag, value, rps_doc):
    options = dict(TRACE if command == "trace" else {}, **{flag: value})
    code, out, err = cli(command, *[f"{k}={v}" for k, v in options.items()], stdin=rps_doc)
    assert (code, out) == (2, b"")
    assert err.startswith(f"gamefibers {command}: error: argument {flag}: ")
    assert f"usage: gamefibers {command}" in err
    assert "Traceback" not in err and "DLASCL" not in err


@pytest.mark.parametrize("command, flag, limit", [("analyze", "--samples", 4096),
                                                  ("trace", "--steps", 10000)])
def test_upper_limits_accept_their_bound(command, flag, limit, rps_doc):
    # the bounds are written out here, so moving where a limit lives cannot change it
    options = dict(TRACE if command == "trace" else {})
    for value in (limit, limit + 1):
        options[flag] = str(value)
        code, out, err = cli(command, *[f"{k}={v}" for k, v in options.items()], stdin=rps_doc)
        if value == limit:
            assert (code, err) == (0, "")
        else:
            assert (code, out) == (2, b"")
            assert err.startswith(f"gamefibers {command}: error: argument {flag}: "
                                  f"must be at most {limit}, got '{value}'\n")


def test_trace_diverging_step_exits_0_quietly(capfd):
    # the corrector overflows far outside the simplex: a corrector_failure,
    # with nothing from numpy or LAPACK on the process's stderr
    doc = gf.write_game(gf.random_game(3, [3, 3, 3], seed=3))
    code, out, err = cli("trace", "--start", "uniform", "--direction", "0",
                         "--step", "1e300", "--steps", "5", stdin=doc)
    assert (code, err) == (0, "")
    assert out.decode().splitlines()[-1] == "terminated: corrector_failure"
    assert capfd.readouterr().err == ""


def loaded_modules(script):
    """Run ``script`` in a fresh interpreter on this checkout's ``src`` and
    return what it prints, where ``loaded(package)`` lists the modules of
    ``package`` loaded."""
    prelude = ("import sys\n"
               "loaded = lambda package: sorted(m for m in sys.modules\n"
               "                                if m.split('.')[0] == package)\n")
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", prelude + script], capture_output=True,
                          text=True, env=env, check=True)
    return proc.stdout


EAGER = ["gamefibers", "gamefibers.cli", "gamefibers.gamedoc", "gamefibers.games"]


# scipy is imported only by the LP, which no command reaches on rps
@pytest.mark.parametrize("command, modules", [
    ("gen", []), ("validate", []), ("eval", []), ("trace", ["fibers"]),
    ("equilibria", ["equilibria"]), ("analyze", ["affine", "fibers"]),
], ids=lambda v: v if isinstance(v, str) else "+".join(v) or "none")
def test_a_command_loads_only_the_modules_it_runs(command, modules):
    argv = [command, *{"gen": ["--builtin", "rps"], "eval": ["--profile", "uniform"],
                       "trace": [x for item in TRACE.items() for x in item]}.get(command, [])]
    ran = sorted(EAGER + [f"gamefibers.{name}" for name in modules])
    assert loaded_modules(
        "import gamefibers.cli\n"
        "print(loaded('gamefibers'), loaded('scipy'))\n"
        "doc = gamefibers.write_game(gamefibers.builtin_game('rps'))\n"
        f"assert gamefibers.cli.run({argv!r}, read_stdin=lambda: doc)[0] == 0\n"
        "print(loaded('gamefibers'), loaded('scipy'))\n"
    ) == f"{EAGER} []\n{ran} []\n"


# the analysis modules are siblings: each imports games, and gamedoc comes
# with the package
@pytest.mark.parametrize("module", ["affine", "fibers", "equilibria"])
def test_an_analysis_module_loads_no_sibling(module):
    ran = sorted(["gamefibers", "gamefibers.gamedoc", "gamefibers.games", f"gamefibers.{module}"])
    assert loaded_modules(
        f"import gamefibers.{module}\n"
        "print(loaded('gamefibers'), loaded('scipy'))\n"
    ) == f"{ran} []\n"


def test_the_lazy_package_keeps_its_public_surface():
    assert loaded_modules(
        "import importlib\n"
        "import gamefibers as gf\n"
        "print(loaded('gamefibers'), sorted({*gf.__all__, 'fibers'} - set(dir(gf))))\n"
        "print(gf.fibers.__name__, gf.affine.__name__, gf.equilibria.__name__)\n"
        "star = {}\n"
        "exec('from gamefibers import *', star)\n"
        "print(sorted(set(gf.__all__) - star.keys()))\n"
        "# a constant's home is games, anything else names its module\n"
        "home = lambda v: importlib.import_module(getattr(v, '__module__', 'gamefibers.games'))\n"
        "print([n for n in gf.__all__ if not star[n] is getattr(gf, n) is getattr(home(star[n]), n)])\n"
        "try:\n"
        "    gf.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    ) == ("['gamefibers', 'gamefibers.gamedoc', 'gamefibers.games'] []\n"
          "gamefibers.fibers gamefibers.affine gamefibers.equilibria\n"
          "[]\n[]\n"
          "module 'gamefibers' has no attribute 'no_such_name'\n")


# the uniform payoff of this 3x3^3 affine game has a witness point in the
# simplex, the payoff at its all-last-strategies vertex has none: there the LP runs
LEVEL_SET_AT = (
    "import gamefibers as gf\n"
    "g = gf.random_game(3, [3, 3, 3], seed=0, jointly_affine=True)\n"
    "rep = gf.extract_affine(g)\n"
    "s = gf.{}\n"
    "assert gf.affine_level_set(rep, gf.total_payoff(g, s), g) is not None\n"
    "print(bool(loaded('scipy')))\n"
)


def test_a_witnessed_level_set_loads_no_scipy():
    assert loaded_modules(LEVEL_SET_AT.format("uniform_profile(g)")) == "False\n"


def test_a_level_set_without_a_witness_runs_the_lp():
    assert loaded_modules(LEVEL_SET_AT.format("pure_profile(g, [2, 2, 2])")) == "True\n"


FUZZ_DOCS = [gf.write_game(g) for g in (
    gf.builtin_game("bar"), gf.builtin_game("rps"),
    gf.random_game(2, [2, 3], seed=5, zero_sum=True),
    gf.random_game(3, [2, 2, 2], seed=6, jointly_affine=True))]
NUMBER = re.compile(rb"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
# a loose eps stops the equilibrium search at its best vertex: a mutated
# game without a vertex within eps can take the search's full budget,
# which is not what is tested here
DOC_COMMANDS = [("validate",), ("eval", "--profile", "uniform"), ("analyze", "--samples", "4"),
                ("equilibria", "--eps", "1e308"),
                ("trace", *[x for item in TRACE.items() for x in item])]


@st.composite
def mutated_documents(draw):
    """A game document with one byte changed, a byte range deleted, or one
    number replaced by an extreme or non-numeric JSON value; or any byte
    string at all."""
    doc = draw(st.sampled_from(FUZZ_DOCS))
    kind = draw(st.sampled_from(["byte", "delete", "number", "bytes"]))
    if kind == "bytes":
        return draw(st.binary())
    if kind == "byte":
        at = draw(st.integers(0, len(doc) - 1))
        return doc[:at] + bytes([draw(st.integers(0, 255))]) + doc[at + 1:]
    if kind == "delete":
        start = draw(st.integers(0, len(doc) - 1))
        return doc[:start] + doc[draw(st.integers(start + 1, len(doc))):]
    start, stop = draw(st.sampled_from([m.span() for m in NUMBER.finditer(doc)]))
    value = draw(st.sampled_from([b"1e308", b"1e999", b"5e-324", b"NaN", b"true", b"null"]))
    return doc[:start] + value + doc[stop:]


@settings(max_examples=150, deadline=None)
@given(doc=mutated_documents())
def test_mutated_documents_exit_cleanly(doc):
    for argv in DOC_COMMANDS:
        code, out, err = cli(*argv, stdin=doc)
        assert code in (0, 1, 2)
        assert err == "" or (code != 0 and err.count("\n") == 1 and err.endswith("\n"))


EXTREMES = [1.7e308, -1.7e308, 1e308, -1e308, 1.7976931348623157e308, 8.9e307,
            1.0, -1.0, 0.0, 5e-324]


@st.composite
def extreme_games(draw):
    """A valid game with 2 or 3 players, 1 to 3 strategies each, and every
    payoff drawn from finite values at and near the ends of the float range."""
    m = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    values = draw(st.lists(st.sampled_from(EXTREMES), min_size=int(np.prod(m)) * len(m),
                           max_size=int(np.prod(m)) * len(m)))
    return gf.GameSpec(np.reshape(values, (*m, len(m))))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=extreme_games())
# overflowing payoff sums in is_zero_sum (analyze, trace), and inf times a
# zero probability in the deviation sweep (equilibria)
@example(g=gf.GameSpec([[[1.7e308, 1.7e308], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
@example(g=gf.GameSpec([[[1.0, 1.0], [1.7976931348623157e308, 0.0]],
                        [[5e-324, 0.0], [1.7e308, 1e308]]]))
# constant near max float: a random profile's sweep rounds past it, inf - inf
@example(g=gf.GameSpec(np.broadcast_to([1.7e308, 1.7976931348623157e308], (2, 2, 2))))
def test_extreme_finite_payoffs_exit_every_subcommand_cleanly(g, capfd):
    # a numpy warning is an error under the suite's filter, and anything
    # written to the process's stderr is caught by capfd; the damped search
    # of a 3-player game can take its full budget at the default eps
    eps = () if g.n == 2 else ("--eps", "1e308")
    doc = gf.write_game(g)
    trace = [x for item in TRACE.items() for x in item]
    for argv in [("validate",), ("eval", "--profile", "uniform"), ("analyze", "--samples", "4"),
                 ("analyze", "--json", "--samples", "4"), ("equilibria", *eps),
                 ("equilibria", "--json", *eps), ("trace", *trace), ("trace", "--json", *trace)]:
        code, out, err = cli(*argv, stdin=doc)
        assert code in (0, 1)
        assert err == "" or (code == 1 and err.count("\n") == 1 and err.endswith("\n"))
    assert capfd.readouterr().err == ""
