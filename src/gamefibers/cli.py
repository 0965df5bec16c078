"""Command-line interface.

Subcommands: ``validate``, ``eval``, ``analyze``, ``equilibria``,
``trace``, and ``gen``.  Game documents are read from a file argument or
from standard input when the argument is ``-`` or omitted, so commands
compose with pipes.  All reports are deterministic given the arguments.
A command imports ``affine``, ``fibers`` or ``equilibria`` only when it
calls into them, so ``gen``, ``validate`` and ``eval`` load none of the three.
Each command builds one report: ``--json`` prints it as JSON, and the text
output renders the same values.  Exit codes: 0 success, 1 data errors, 2
usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys

from .games import (
    DEFAULT_SAMPLES,
    MAX_SAMPLES,
    MAX_TRACE_STEPS,
    SEARCH_EPS,
    TRACE_TOL,
    GameSpec,
    StrategyProfile,
    _snap_profile,
    total_payoff,
    uniform_profile,
    validate_game,
)
from .gamedoc import (
    builtin_game,
    format_number,
    parse_game,
    random_game,
    write_game,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _number(kind, low=None, high=None):
    """argparse type: a finite ``kind`` (int or float), at least ``low`` and
    at most ``high`` when given."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if kind is float and not math.isfinite(value):  # isfinite overflows on huge ints
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text!r}")
        return value
    return parse


def _text(value) -> str:
    """A report value as text: yes/no, n/a for None, lists space-joined."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "n/a"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def _profile_str(s: StrategyProfile) -> str:
    return "; ".join(",".join(format_number(x) for x in b) for b in s.blocks)


def _parse_profile(text: str, g: GameSpec) -> StrategyProfile:
    """Profile from the CLI syntax: per-player comma-separated probabilities
    with players separated by ';', or the shorthand 'uniform'.  Entries are
    snapped onto the simplex by ``_snap_profile``."""
    if text.strip() == "uniform":
        return uniform_profile(g)
    parts = text.split(";")
    if len(parts) != g.n:
        raise ValueError(f"profile needs {g.n} blocks separated by ';'")
    blocks = []
    for part in parts:
        toks = [t.strip() for t in part.split(",")]
        if any(not t for t in toks):
            raise ValueError("empty probability entry in profile")
        blocks.append([float(t) for t in toks])
    return _snap_profile(blocks)


def _load_game(args, read_stdin) -> GameSpec:
    if args.file in (None, "-"):
        doc = read_stdin()
    else:
        with open(args.file, "rb") as fh:
            doc = fh.read()
    return parse_game(doc)


def _load_valid_game(args, read_stdin) -> GameSpec:
    g = _load_game(args, read_stdin)
    defects = validate_game(g)
    if defects:
        raise ValueError(f"invalid game: {defects[0]}")
    return g


def _out(args, report, text: str) -> bytes:
    """The command's one report: as JSON under ``--json`` (a profile as its
    list of blocks), else ``text``, its rendering."""
    if args.json:
        text = json.dumps(report, sort_keys=True,
                          default=lambda s: [b.tolist() for b in s.blocks]) + "\n"
    return text.encode("utf-8")


def _cmd_validate(args, read_stdin):
    defects = [str(d) for d in validate_game(_load_game(args, read_stdin))]
    text = "".join(f"{d}\n" for d in defects) or "ok\n"
    return (1 if defects else 0), _out(args, {"ok": not defects, "defects": defects}, text)


def _cmd_eval(args, read_stdin):
    g = _load_valid_game(args, read_stdin)
    pay = [float(v) for v in total_payoff(g, _parse_profile(args.profile, g))]
    text = "".join(f"{name}: {format_number(v)}\n" for name, v in zip(g.player_names, pay))
    return 0, _out(args, {"payoffs": pay}, text)


def _cmd_analyze(args, read_stdin):
    from .affine import extract_affine, is_jointly_affine
    from .fibers import generic_rank
    g = _load_valid_game(args, read_stdin)
    zero_sum = g.zero_sum
    affine = is_jointly_affine(g)
    k = generic_rank(g, samples=args.samples, seed=args.seed)
    rows = [  # (JSON key, text label, value)
        ("players", "players", g.n),
        ("strategies", "strategies", list(g.m)),
        ("profiles", "profiles", g.num_profiles),
        ("pure_strategies", "pure strategies", g.num_coords),
        ("chart_dimension", "chart dimension", g.reduced_dim),
        ("zero_sum", "zero-sum", zero_sum),
        ("jointly_affine", "jointly affine", affine),
        ("generic_rank", "generic rank", k),
        ("generic_fiber_dimension", "generic fiber dimension", g.reduced_dim - k),
    ]
    info = {key: value for key, _, value in rows}
    info["affine"] = None
    if affine:
        rep = extract_affine(g, use_zero_sum_reduction=zero_sum)
        rank = rep.rank     # one SVD per read
        nullity = rep.matrix.shape[1] - rank
        hyp_three = any(mi >= 3 for mi in g.m)
        bound = None
        if all(mi >= 2 for mi in g.m):
            if zero_sum:
                bound = g.num_coords - 2 * g.n + 1
            elif hyp_three:
                bound = g.num_coords - 2 * g.n
        affine_rows = [
            ("rank", "affine rank", rank),
            ("nullity", "affine nullity", nullity),
            ("hypothesis_three_strategies", "hypothesis >=3 strategies", hyp_three),
            ("hypothesis_zero_sum", "hypothesis zero-sum", zero_sum),
            ("dimension_bound", "dimension bound", bound),
            ("bound_satisfied", "bound satisfied",
             (nullity >= bound) if bound is not None else None),
        ]
        info["affine"] = {key: value for key, _, value in affine_rows}
        rows += affine_rows
    return 0, _out(args, info, "".join(f"{label}: {_text(value)}\n" for _, label, value in rows))


def _cmd_equilibria(args, read_stdin):
    from .equilibria import _answers
    g = _load_valid_game(args, read_stdin)
    pure, mixed, search = _answers(g, args.eps, args.seed)
    report = {  # a pure equilibrium's gap is 0 by definition
        "pure": [{"profile": v, "epsilon": 0.0} for v in pure],
        "mixed": [{"blocks": rep.profile, "epsilon": rep.epsilon} for rep in mixed],
        "search": {"blocks": search.profile, "converged": search.converged,
                   "epsilon": search.epsilon},
    }
    lines = [f"pure: {','.join(map(g.label, range(g.n), p['profile']))} "
             f"epsilon={format_number(p['epsilon'])}" for p in report["pure"]]
    lines += [f"mixed: {_profile_str(m['blocks'])} epsilon={format_number(m['epsilon'])}"
              for m in report["mixed"]]
    found = report["search"]
    lines.append(f"search: {_profile_str(found['blocks'])} converged={_text(found['converged'])} "
                 f"epsilon={format_number(found['epsilon'])}")
    return 0, _out(args, report, "".join(f"{line}\n" for line in lines))


def _cmd_trace(args, read_stdin):
    from .fibers import trace_fiber
    g = _load_valid_game(args, read_stdin)
    s0 = _parse_profile(args.start, g)
    path = trace_fiber(g, s0, args.direction, args.step, args.steps, tol=args.tol)
    report = {
        "points": [[float(x) for x in p] for p in path.points],
        "target": [float(v) for v in path.target_payoff],
        "drift": path.max_payoff_drift,
        "terminated": path.terminated_by,
    }
    text = "".join(" ".join(map(format_number, p)) + "\n" for p in report["points"])
    text += (f"points: {len(report['points'])}\ndrift: {format_number(report['drift'])}\n"
             f"terminated: {report['terminated']}\n")
    return 0, _out(args, report, text)


def _cmd_gen(args, read_stdin):
    if args.builtin is not None:
        if args.random or args.params or args.zero_sum or args.affine:
            raise _UsageError("gen: --builtin does not combine with --random options")
        return 0, write_game(builtin_game(args.builtin))
    if not args.random:
        raise _UsageError("gen: choose --builtin NAME or --random n=.. m=.. [seed=..]")
    params = {"n": None, "m": None, "seed": "0"}
    for token in args.params:
        key, sep, value = token.partition("=")
        if not sep or key not in params:
            raise _UsageError(f"gen: unknown parameter {token!r} (use n=, m=, seed=)")
        params[key] = value
    if params["n"] is None or params["m"] is None:
        raise _UsageError("gen: --random needs n=.. and m=..")
    try:
        n = int(params["n"])
        m = [int(x) for x in params["m"].split(",")]
        seed = int(params["seed"])
    except ValueError as exc:
        raise _UsageError(f"gen: bad parameter value: {exc}") from exc
    g = random_game(n, m, seed, zero_sum=args.zero_sum, jointly_affine=args.affine)
    return 0, write_game(g)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gamefibers",
                     description="Normal-form games: payoffs, level sets, equilibria.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, with_file=True):
        p = sub.add_parser(name, help=help_text)
        if with_file:
            p.add_argument("file", nargs="?", default=None,
                           help="game document path, or - / omitted for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("validate", "check a game document").set_defaults(func=_cmd_validate)

    p = add("eval", "expected payoff at a profile")
    p.add_argument("--profile", required=True,
                   help="per-player probabilities, e.g. '0.5,0.5; 1,0', or 'uniform'")
    p.set_defaults(func=_cmd_eval)

    p = add("analyze", "dimensions, zero-sum/affinity flags, generic rank")
    p.add_argument("--samples", type=_number(int, 1, MAX_SAMPLES),
                   default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.set_defaults(func=_cmd_analyze)

    p = add("equilibria", "pure, support-enumeration, and searched equilibria")
    p.add_argument("--eps", type=_number(float, 0), default=SEARCH_EPS)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.set_defaults(func=_cmd_equilibria)

    p = add("trace", "walk inside a level set of the payoff map")
    p.add_argument("--start", required=True, help="starting profile (same syntax as eval)")
    p.add_argument("--direction", type=_number(int, 0), required=True)
    p.add_argument("--step", type=_number(float), required=True)
    p.add_argument("--steps", type=_number(int, 0, MAX_TRACE_STEPS), required=True)
    p.add_argument("--tol", type=_number(float, 0), default=TRACE_TOL)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("gen", help="write a game document to stdout")
    p.add_argument("--builtin", choices=["rps", "bar"])
    p.add_argument("--random", action="store_true")
    p.add_argument("--zero-sum", dest="zero_sum", action="store_true")
    p.add_argument("--affine", action="store_true")
    p.add_argument("params", nargs="*", help="n=.. m=.. seed=.. for --random")
    p.set_defaults(func=_cmd_gen)
    return parser


def run(argv, read_stdin=None) -> tuple[int, bytes, str]:
    """Execute one CLI invocation; returns (exit code, stdout bytes, stderr text)."""
    if read_stdin is None:
        read_stdin = lambda: sys.stdin.buffer.read()  # noqa: E731
    parser = _build_parser()
    help_out = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_out):
            args = parser.parse_args(argv)
    except _UsageError as exc:
        return 2, b"", str(exc).rstrip("\n") + "\n"
    except SystemExit as exc:  # --help prints and exits 0
        code = exc.code if isinstance(exc.code, int) else 0
        return (0 if code == 0 else 2), help_out.getvalue().encode(), ""
    try:
        return args.func(args, read_stdin) + ("",)
    except _UsageError as exc:
        return 2, b"", str(exc).rstrip("\n") + "\n"
    except (OSError, ValueError, IndexError) as exc:
        return 1, b"", f"error: {exc}\n"


def main(argv=None) -> int:
    code, out, err = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    if err:
        sys.stderr.write(err)
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
