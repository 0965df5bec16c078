"""Command-line interface.

Subcommands: ``validate``, ``eval``, ``analyze``, ``equilibria``,
``trace``, and ``gen``.  Game documents are read from a file argument or
from standard input when the argument is ``-`` or omitted, so commands
compose with pipes.  All reports are deterministic given the arguments;
``--json`` switches to machine-readable output.  Exit codes: 0 success,
1 data errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys

import numpy as np

from .affine import extract_affine, is_jointly_affine
from .equilibria import (
    SEARCH_EPS,
    SUPPORT_MAX_STRATEGIES,
    find_equilibrium,
    pure_equilibria,
    support_enumeration,
    verify_equilibrium,
)
from .fibers import DEFAULT_SAMPLES, TRACE_TOL, generic_rank, trace_fiber
from .games import (
    GameSpec,
    StrategyProfile,
    is_zero_sum,
    pure_profile,
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


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _finite_non_negative(text: str) -> float:
    """argparse type: a finite float that is not negative."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return value
    return parse


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _profile_str(s: StrategyProfile) -> str:
    return "; ".join(",".join(format_number(x) for x in b) for b in s.blocks)


def _parse_profile(text: str, g: GameSpec) -> StrategyProfile:
    """Profile from the CLI syntax: per-player comma-separated probabilities
    with players separated by ';', or the shorthand 'uniform'.  Entries are
    renormalized only within the simplex tolerance, otherwise rejected."""
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
    checked = StrategyProfile(blocks)
    cleaned = [np.clip(b, 0.0, 1.0) for b in checked.blocks]
    return StrategyProfile([b / b.sum() for b in cleaned])


def _read_doc(args, read_stdin) -> bytes:
    if args.file in (None, "-"):
        return read_stdin()
    with open(args.file, "rb") as fh:
        return fh.read()


def _load_game(args, read_stdin) -> GameSpec:
    return parse_game(_read_doc(args, read_stdin))


def _load_valid_game(args, read_stdin) -> GameSpec:
    g = _load_game(args, read_stdin)
    defects = validate_game(g)
    if defects:
        raise ValueError(f"invalid game: {defects[0]}")
    return g


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def _cmd_validate(args, read_stdin):
    g = _load_game(args, read_stdin)
    defects = validate_game(g)
    if args.json:
        out = _json_bytes({"ok": not defects, "defects": [str(d) for d in defects]})
    elif defects:
        out = ("\n".join(str(d) for d in defects) + "\n").encode()
    else:
        out = b"ok\n"
    return (0 if not defects else 1), out


def _cmd_eval(args, read_stdin):
    g = _load_valid_game(args, read_stdin)
    s = _parse_profile(args.profile, g)
    pay = total_payoff(g, s)
    names = g.player_names or tuple(f"player{i + 1}" for i in range(g.n))
    if args.json:
        return 0, _json_bytes({"payoffs": [float(v) for v in pay]})
    lines = [f"{name}: {format_number(v)}" for name, v in zip(names, pay)]
    return 0, ("\n".join(lines) + "\n").encode()


def _cmd_analyze(args, read_stdin):
    g = _load_valid_game(args, read_stdin)
    zero_sum = is_zero_sum(g)
    affine = is_jointly_affine(g)
    k = generic_rank(g, samples=args.samples, seed=args.seed)
    info = {
        "players": g.n,
        "strategies": list(g.m),
        "profiles": g.num_profiles,
        "pure_strategies": g.num_coords,
        "chart_dimension": g.reduced_dim,
        "zero_sum": zero_sum,
        "jointly_affine": affine,
        "generic_rank": k,
        "generic_fiber_dimension": g.reduced_dim - k,
        "affine": None,
    }
    lines = [
        f"players: {g.n}",
        "strategies: " + " ".join(str(mi) for mi in g.m),
        f"profiles: {g.num_profiles}",
        f"pure strategies: {g.num_coords}",
        f"chart dimension: {g.reduced_dim}",
        f"zero-sum: {_yn(zero_sum)}",
        f"jointly affine: {_yn(affine)}",
        f"generic rank: {k}",
        f"generic fiber dimension: {g.reduced_dim - k}",
    ]
    if affine:
        rep = extract_affine(g, use_zero_sum_reduction=zero_sum)
        rank = rep.rank
        nullity = rep.matrix.shape[1] - rank
        hyp_three = any(mi >= 3 for mi in g.m)
        bound = None
        if all(mi >= 2 for mi in g.m):
            if zero_sum:
                bound = g.num_coords - 2 * g.n + 1
            elif hyp_three:
                bound = g.num_coords - 2 * g.n
        info["affine"] = {
            "rank": rank,
            "nullity": nullity,
            "hypothesis_three_strategies": hyp_three,
            "hypothesis_zero_sum": zero_sum,
            "dimension_bound": bound,
            "bound_satisfied": (nullity >= bound) if bound is not None else None,
        }
        lines += [
            f"affine rank: {rank}",
            f"affine nullity: {nullity}",
            f"hypothesis >=3 strategies: {_yn(hyp_three)}",
            f"hypothesis zero-sum: {_yn(zero_sum)}",
            "dimension bound: " + (str(bound) if bound is not None else "n/a"),
            "bound satisfied: " + (_yn(nullity >= bound) if bound is not None else "n/a"),
        ]
    if args.json:
        return 0, _json_bytes(info)
    return 0, ("\n".join(lines) + "\n").encode()


def _cmd_equilibria(args, read_stdin):
    g = _load_valid_game(args, read_stdin)
    lines = []
    data = {"pure": [], "mixed": [], "search": None}
    for vertex in pure_equilibria(g):
        rep = verify_equilibrium(g, pure_profile(g, vertex), 0.0)
        label = ",".join(g.label(i, j) for i, j in enumerate(vertex))
        lines.append(f"pure: {label} epsilon={format_number(rep.epsilon)}")
        data["pure"].append({"profile": list(vertex), "epsilon": rep.epsilon})
    if g.n == 2 and max(g.m) <= SUPPORT_MAX_STRATEGIES:
        for rep in support_enumeration(g, eps=args.eps):
            lines.append(f"mixed: {_profile_str(rep.profile)} "
                         f"epsilon={format_number(rep.epsilon)}")
            data["mixed"].append({"blocks": [list(map(float, b)) for b in rep.profile.blocks],
                                  "epsilon": rep.epsilon})
    search = find_equilibrium(g, seed=args.seed, eps=args.eps)
    lines.append(f"search: {_profile_str(search.profile)} "
                 f"converged={_yn(search.converged)} "
                 f"epsilon={format_number(search.epsilon)}")
    data["search"] = {"blocks": [list(map(float, b)) for b in search.profile.blocks],
                      "converged": search.converged, "epsilon": search.epsilon}
    if args.json:
        return 0, _json_bytes(data)
    return 0, ("\n".join(lines) + "\n").encode()


def _cmd_trace(args, read_stdin):
    g = _load_valid_game(args, read_stdin)
    s0 = _parse_profile(args.start, g)
    path = trace_fiber(g, s0, args.direction, args.step, args.steps, tol=args.tol)
    if args.json:
        return 0, _json_bytes({
            "points": [[float(x) for x in p] for p in path.points],
            "target": [float(v) for v in path.target_payoff],
            "drift": path.max_payoff_drift,
            "terminated": path.terminated_by,
        })
    lines = [" ".join(format_number(x) for x in p) for p in path.points]
    lines.append(f"points: {len(path.points)}")
    lines.append(f"drift: {format_number(path.max_payoff_drift)}")
    lines.append(f"terminated: {path.terminated_by}")
    return 0, ("\n".join(lines) + "\n").encode()


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
    p.add_argument("--samples", type=_int_at_least(1), default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_analyze)

    p = add("equilibria", "pure, support-enumeration, and searched equilibria")
    p.add_argument("--eps", type=_finite_non_negative, default=SEARCH_EPS)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_equilibria)

    p = add("trace", "walk inside a level set of the payoff map")
    p.add_argument("--start", required=True, help="starting profile (same syntax as eval)")
    p.add_argument("--direction", type=_int_at_least(0), required=True)
    p.add_argument("--step", type=_finite, required=True)
    p.add_argument("--steps", type=_int_at_least(0), required=True)
    p.add_argument("--tol", type=_finite_non_negative, default=TRACE_TOL)
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
