import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gamefibers as gf
from gamefibers.cli import run

GOLDEN = Path(__file__).parent / "golden"


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


def test_gen_usage_errors():
    assert cli("gen")[0] == 2
    assert cli("gen", "--random", "n=2")[0] == 2
    assert cli("gen", "--random", "n=two", "m=2,2")[0] == 2
    assert cli("gen", "--builtin", "bar", "--random")[0] == 2
    code, _, err = cli("gen", "--builtin", "checkers")
    assert code == 2 and "invalid choice" in err


def test_validate_ok_and_defects(bar_doc):
    code, out, err = cli("validate", stdin=bar_doc)
    assert (code, out) == (0, b"ok\n")
    bad = bar_doc.replace(b'"values": [0, 0]}', b'"values": [0, Infinity]}', 1)
    code, out, _ = cli("validate", stdin=bad)
    assert code == 1
    assert b"non-finite payoff" in out
    code, out, _ = cli("validate", "--json", stdin=bar_doc)
    assert code == 0 and json.loads(out) == {"ok": True, "defects": []}


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


def test_analyze_json_agreement(bar_doc):
    code, out, _ = cli("analyze", "--json", stdin=bar_doc)
    info = json.loads(out)
    assert info["zero_sum"] and info["jointly_affine"]
    assert info["generic_rank"] == info["affine"]["rank"] == 1
    assert info["generic_fiber_dimension"] == 1
    assert info["affine"]["dimension_bound"] == 1
    assert info["affine"]["bound_satisfied"] is True


def test_analyze_deterministic(rps_doc):
    runs = {cli("analyze", "--samples", "32", "--seed", "9", stdin=rps_doc)
            for _ in range(3)}
    assert len(runs) == 1


def test_equilibria_bar(bar_doc):
    code, out, _ = cli("equilibria", stdin=bar_doc)
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "pure: M,M epsilon=0"
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


TRACE = {"--start": "uniform", "--direction": "0", "--step": "0.05", "--steps": "5"}


@pytest.mark.parametrize("command, flag, value", [
    ("trace", "--step", "nan"),
    ("trace", "--step", "inf"),
    ("trace", "--steps", "-5"),
    ("trace", "--tol", "nan"),
    ("trace", "--tol", "-inf"),
    ("trace", "--tol", "-1"),
    ("equilibria", "--eps", "-1"),
    ("equilibria", "--eps", "nan"),
    ("analyze", "--samples", "0"),
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


def test_trace_diverging_step_exits_0_quietly(capfd):
    # the corrector overflows far outside the simplex: a corrector_failure,
    # with nothing from numpy or LAPACK on the process's stderr
    doc = gf.write_game(gf.random_game(3, [3, 3, 3], seed=3))
    code, out, err = cli("trace", "--start", "uniform", "--direction", "0",
                         "--step", "1e300", "--steps", "5", stdin=doc)
    assert (code, err) == (0, "")
    assert out.decode().splitlines()[-1] == "terminated: corrector_failure"
    assert capfd.readouterr().err == ""


def test_scipy_is_imported_only_by_the_lp():
    script = (
        "import sys\n"
        "import gamefibers as gf\n"
        "import gamefibers.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "doc = gf.write_game(gf.builtin_game('rps'))\n"
        "assert gamefibers.cli.run(['analyze'], read_stdin=lambda: doc)[0] == 0\n"
        "print(loaded())\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout == "[]\n[]\n"
