"""The benchmark workloads: seeded inputs, one operation each, the checks
every output must pass, and (for the CLI workload) an in-process replay of
each command's library calls for the traced run.

Every workload is a fixed script of operations that run.py's loop runs in
whole passes, one operation at a time (a closed loop with one client).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gamefibers as gf
from gamefibers import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CLI_TIMEOUT_S = 150
SEARCH_EPS = 1e-6            # the CLI's default --eps
SEARCH_MAX_ITER = 100        # equilibria-lib search budget per start
ANALYZE_SAMPLES = 64         # the CLI's default --samples
TRACE_TOL = 1e-10            # trace_fiber's default corrector tolerance
CLI_TRACE_STEP, CLI_TRACE_STEPS = 0.02, 100
LIB_TRACE_STEP, LIB_TRACE_STEPS = 0.001, 50


def _env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def dimension_bound(g) -> int | None:
    """The paper's lower bound on affine nullity: N - 2n + 1 for zero-sum
    games, N - 2n when some player has three or more strategies."""
    if any(mi < 2 for mi in g.m):
        return None
    if gf.is_zero_sum(g):
        return g.num_coords - 2 * g.n + 1
    if any(mi >= 3 for mi in g.m):
        return g.num_coords - 2 * g.n
    return None


def _size(g) -> str:
    return f"{g.n}x{'x'.join(map(str, g.m))}"


def _scale(g) -> float:
    return max(1.0, float(np.abs(g.payoffs).max()))


def uniform_payoff(g) -> np.ndarray:
    """Payoff at the uniform profile, computed apart from the library: the
    mean payoff vector over all pure profiles."""
    return g.payoffs.reshape(-1, g.n).mean(axis=0)


def deviation_gains(g, blocks) -> np.ndarray:
    """Each player's best gain from a pure deviation, computed apart from
    the library with one einsum over the payoff tensor per player."""
    axes = "abcdefghijklmnop"[:g.n]
    gains = []
    for p in range(g.n):
        others = [q for q in range(g.n) if q != p]
        spec = f"{axes}z," + ",".join(axes[q] for q in others) + f"->{axes[p]}z"
        dev = np.einsum(spec, g.payoffs, *(blocks[q] for q in others))[:, p]
        gains.append(float(dev.max() - blocks[p] @ dev))
    return np.array(gains)


def _verify_errors(g, blocks, eps, what) -> list[str]:
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    errs = []
    if not gf.verify_equilibrium(g, gf.StrategyProfile(blocks), eps).converged:
        errs.append(f"{what}: verify_equilibrium rejects it at its stated epsilon {eps!r}")
    gain = deviation_gains(g, blocks).max()
    if gain > eps + 1e-12 * _scale(g):
        errs.append(f"{what}: a pure deviation gains {gain!r}, above its stated epsilon {eps!r}")
    return errs


def _trace_errors(g, points, target, drift, tol) -> list[str]:
    errs = []
    if not drift <= tol:
        errs.append(f"trace drift {drift!r} above tol {tol!r}")
    worst = 0.0
    for r in points:
        try:
            s = gf.embed_profile(g, r)
        except ValueError as exc:
            errs.append(f"trace point off the simplex: {exc}")
            break
        worst = max(worst, float(np.abs(gf.total_payoff(g, s) - target).max()))
    # Embedding renormalizes each block, which may move the payoff by a
    # few ulps beyond the corrector's own residual.
    if worst > 10 * tol:
        errs.append(f"recomputed trace drift {worst!r} above 10 * tol")
    return errs


# --------------------------------------------------------------------------
# CLI workloads: one operation is one `python -m gamefibers.cli` process.

@dataclass(frozen=True)
class Command:
    argv: tuple
    game: str
    stdin: bool = False          # the game's document on standard input

    @property
    def label(self) -> str:
        return f"{self.argv[0]} {self.game}"


class CliWorkload:
    kind = "cli"

    def __init__(self, recipes: dict, commands: list, roundtrip: set, tracer):
        self.recipes = recipes
        self.games = {k: tracer.call(fn, *a, **kw) for k, (fn, a, kw) in recipes.items()}
        self.commands = commands
        self.script = list(range(len(commands)))
        self.roundtrip = roundtrip     # games whose gen output is parsed and rewritten
        self.docs = {}                 # canonical documents: stdin ones now, others when checked
        for cmd in commands:
            if cmd.stdin and cmd.game not in self.docs:
                self.docs[cmd.game] = tracer.call(gf.write_game, self.games[cmd.game])
                tracer.annotate(bytes=len(self.docs[cmd.game]))
        self.env = _env()

    def label(self, i):
        return self.commands[i].label

    def doc(self, game) -> bytes:
        if game not in self.docs:
            self.docs[game] = gf.write_game(self.games[game])
        return self.docs[game]

    def _stdin(self, cmd) -> bytes:
        return self.doc(cmd.game) if cmd.stdin else b""

    def run(self, i, tracer):
        cmd = self.commands[i]
        with tracer.span("process"):
            proc = subprocess.run([sys.executable, "-m", "gamefibers.cli", *cmd.argv],
                                  input=self._stdin(cmd), capture_output=True,
                                  cwd=ROOT, env=self.env, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    # ---- checks

    def check(self, i, output) -> list[str]:
        cmd = self.commands[i]
        code, out, err = output
        if code != 0:
            return [f"exit code {code}: {err.decode(errors='replace').strip()[:200]}"]
        g = self.games[cmd.game]
        return getattr(self, "_check_" + cmd.argv[0])(cmd, g, out)

    def _check_gen(self, cmd, g, out):
        errs = [] if out == self.doc(cmd.game) else ["gen output differs from write_game"]
        if cmd.game in self.roundtrip and gf.write_game(gf.parse_game(out)) != out:
            errs.append("write -> parse -> write is not byte-identical")
        return errs

    def _check_validate(self, cmd, g, out):
        return [] if out == b"ok\n" else [f"validate printed {out[:80]!r}"]

    def _check_eval(self, cmd, g, out):
        names, values = zip(*(line.split(": ") for line in out.decode().splitlines()))
        if list(names) != list(g.player_names):
            return [f"eval printed players {names}"]
        gap = np.abs(np.array(values, dtype=float) - uniform_payoff(g)).max()
        return [] if gap <= 1e-12 * _scale(g) else [f"eval payoffs off by {gap!r}"]

    def _check_analyze(self, cmd, g, out):
        golden = GOLDEN / f"analyze_{cmd.game}.txt"
        if "--json" not in cmd.argv:
            return [] if out == golden.read_bytes() else [f"analyze differs from {golden.name}"]
        info = json.loads(out)
        errs = []
        _, _, made = self.recipes[cmd.game]      # the flags the game was made with
        want = {"zero_sum": bool(made.get("zero_sum")),
                "jointly_affine": bool(made.get("jointly_affine")),
                "generic_rank": gf.generic_rank(g, ANALYZE_SAMPLES, 0),
                "profiles": g.num_profiles, "chart_dimension": g.reduced_dim}
        for key, value in want.items():
            if info.get(key) != value:
                errs.append(f"analyze {key}={info.get(key)!r}, expected {value!r}")
        if want["jointly_affine"]:
            bound = dimension_bound(g)
            aff = info.get("affine") or {}
            nullity = aff.get("nullity")
            if aff.get("dimension_bound") != bound or (
                    bound is not None and not (isinstance(nullity, int) and nullity >= bound)):
                errs.append(f"affine nullity {nullity!r} vs bound {bound}")
        return errs

    def _check_equilibria(self, cmd, g, out):
        data = json.loads(out)
        errs = []
        for p in data["pure"]:
            vertex = gf.pure_profile(g, p["profile"]).blocks
            errs += _verify_errors(g, vertex, p["epsilon"], "pure equilibrium")
        for mx in data["mixed"]:
            errs += _verify_errors(g, mx["blocks"], mx["epsilon"], "mixed equilibrium")
        search = data["search"]
        errs += _verify_errors(g, search["blocks"], search["epsilon"], "search result")
        if search["converged"] != (search["epsilon"] <= SEARCH_EPS):
            errs.append("search converged flag disagrees with its epsilon")
        return errs

    def _check_trace(self, cmd, g, out):
        data = json.loads(out)
        return _trace_errors(g, data["points"], np.array(data["target"]),
                             data["drift"], TRACE_TOL)

    def searches(self, i, output) -> list[bool]:
        code, out, _ = output
        if self.commands[i].argv[0] != "equilibria" or code != 0:
            return []
        return [bool(json.loads(out)["search"]["converged"])]

    # ---- in-process replay for the traced run

    def replay(self, i, tracer):
        """Run the command once through ``cli.run``, then call the public
        functions that command uses, in the order the CLI calls them."""
        cmd = self.commands[i]
        doc = self._stdin(cmd)
        tracer.call(cli.run, list(cmd.argv), lambda: doc)
        sub = cmd.argv[0]
        if sub == "gen":
            fn, a, kw = self.recipes[cmd.game]
            g = tracer.call(fn, *a, **kw)
            out = tracer.call(gf.write_game, g)
            tracer.annotate(bytes=len(out))
            return
        g = tracer.call(gf.parse_game, doc)
        tracer.annotate(bytes=len(doc))
        tracer.call(gf.validate_game, g)
        if sub == "eval":
            s = tracer.call(gf.uniform_profile, g)
            tracer.call(gf.total_payoff, g, s)
            tracer.annotate(bytes=g.payoffs.nbytes)
        elif sub == "analyze":
            zs = tracer.call(gf.is_zero_sum, g)
            affine = tracer.call(gf.is_jointly_affine, g)
            tracer.annotate(affine=affine)
            tracer.call(gf.generic_rank, g, samples=ANALYZE_SAMPLES, seed=0)
            if affine:
                rep = tracer.call(gf.extract_affine, g, use_zero_sum_reduction=zs)
                tracer.call(gf.numerical_rank, rep.matrix)
        elif sub == "equilibria":
            for vertex in tracer.call(gf.pure_equilibria, g):
                s = tracer.call(gf.pure_profile, g, vertex)
                tracer.call(gf.verify_equilibrium, g, s, 0.0)
            if g.n == 2 and max(g.m) <= 6:         # the CLI's own limit
                tracer.call(gf.support_enumeration, g, eps=SEARCH_EPS)
                tracer.annotate(pairs=_support_pairs(g))
            rep = tracer.call(gf.find_equilibrium, g, seed=0, eps=SEARCH_EPS)
            tracer.annotate(epsilon=rep.epsilon)
        elif sub == "trace":
            s0 = tracer.call(gf.uniform_profile, g)
            path = tracer.call(gf.trace_fiber, g, s0, 0, CLI_TRACE_STEP, CLI_TRACE_STEPS,
                               tol=TRACE_TOL)
            tracer.annotate(points=len(path.points) - 1, max_steps=CLI_TRACE_STEPS)

    def sizes(self) -> dict:
        out = {}
        for k, g in self.games.items():
            out[k] = {"size": _size(g), "profiles": g.num_profiles,
                      "tensor_mb": g.payoffs.nbytes / 1e6}
            doc = self.docs.get(k)
            if doc:
                out[k]["doc_mb"] = len(doc) / 1e6
        return out


def _gen_argv(recipe) -> tuple:
    fn, a, kw = recipe
    if fn is gf.builtin_game:
        return ("gen", "--builtin", a[0])
    n, m, seed = a
    argv = ["gen", "--random", f"n={n}", "m=" + ",".join(map(str, m)), f"seed={seed}"]
    if kw.get("zero_sum"):
        argv.append("--zero-sum")
    if kw.get("jointly_affine"):
        argv.append("--affine")
    return tuple(argv)


def _trace_argv() -> tuple:
    return ("trace", "--json", "--start", "uniform", "--direction", "0",
            "--step", str(CLI_TRACE_STEP), "--steps", str(CLI_TRACE_STEPS))


def cli_desk(seed, tracer):
    """Desk-size games through every subcommand.  `equilibria` runs only on
    games whose search ends quickly: random 2-player zero-sum games can
    spend seconds in a non-converging search, while jointly-affine games
    have dominant strategies."""
    recipes = {
        "rps": (gf.builtin_game, ("rps",), {}),
        "bar": (gf.builtin_game, ("bar",), {}),
        "zs": (gf.random_game, (2, (3, 3), seed), {"zero_sum": True}),
        "aff": (gf.random_game, (3, (3, 3, 3), seed), {"jointly_affine": True}),
    }
    commands = [Command(_gen_argv(recipes[k]), k) for k in ("rps", "zs", "aff")]
    commands += [
        Command(("validate",), "zs", True),
        Command(("eval", "--profile", "uniform"), "aff", True),
        Command(("analyze",), "rps", True),
        Command(("analyze",), "bar", True),
        Command(("analyze", "--json"), "aff", True),
        Command(("equilibria", "--json"), "rps", True),
        Command(("equilibria", "--json"), "aff", True),
        Command(_trace_argv(), "bar", True),
        Command(_trace_argv(), "aff", True),
    ]
    return CliWorkload(recipes, commands, {"zs", "aff"}, tracer)


# --------------------------------------------------------------------------
# Library workloads: one operation answers one game's questions in process.

def _support_pairs(g) -> int:
    """Support pairs support_enumeration tries: every nonempty support of
    each player."""
    return (2 ** g.m[0] - 1) * (2 ** g.m[1] - 1)


class LibWorkload:
    kind = "lib"

    def __init__(self, games: list):
        self.games = games             # (label, GameSpec)
        self.script = list(range(len(games)))

    def label(self, i):
        return self.games[i][0]

    def searches(self, i, output) -> list[bool]:
        return [output["search_converged"]] if "search_converged" in output else []

    def sizes(self) -> dict:
        return {label: {"size": _size(g), "profiles": g.num_profiles,
                        "tensor_mb": g.payoffs.nbytes / 1e6}
                for label, g in self.games}


class GeometryLib(LibWorkload):
    """The in-process `analyze` pipeline, payoff kernels at the uniform
    profile, the affine level set with its simplex LP, a fiber report and
    a long fiber trace; and one document round trip per pass: writing and
    parsing a 100 000-profile game (14.8 MB), as `gen` and `validate` do."""

    SIZES = ((3, 4), (4, 6), (5, 5), (4, 10))
    VARIANTS = ("generic", "affine", "zero-sum")    # zero-sum games are jointly affine too
    # Two games of each size and variant: the median operation then moves
    # less with the seed than with one.
    INSTANCES = 2

    def __init__(self, seed, tracer):
        games = []
        for n, m in self.SIZES:
            for variant in self.VARIANTS:
                for k in range(self.INSTANCES):
                    g = tracer.call(gf.random_game, n, (m,) * n, seed * 100 + len(games),
                                    zero_sum=variant == "zero-sum",
                                    jointly_affine=variant != "generic")
                    games.append((f"{n}x{m}^{n} {variant} #{k}", g))
        games.append(("6x8^6 generic",
                      tracer.call(gf.random_game, 6, (8,) * 6, seed * 100 + len(games))))
        self.document = len(games)
        games.append(("5x10^5 affine zero-sum document",
                      tracer.call(gf.random_game, 5, (10,) * 5, seed * 100 + len(games),
                                  zero_sum=True, jointly_affine=True)))
        self.doc_mb = None
        super().__init__(games)

    def run(self, i, t):
        label, g = self.games[i]
        if i == self.document:
            return self.roundtrip(g, t)
        res = {"variant": label.split()[1]}
        res["defects"] = t.call(gf.validate_game, g)
        res["zero_sum"] = zs = t.call(gf.is_zero_sum, g)
        res["affine"] = affine = t.call(gf.is_jointly_affine, g)
        t.annotate(affine=affine)
        res["k"] = k = t.call(gf.generic_rank, g, ANALYZE_SAMPLES)
        s = t.call(gf.uniform_profile, g)
        res["payoff"] = y = t.call(gf.total_payoff, g, s)
        t.annotate(bytes=g.payoffs.nbytes)
        res["dev_gap"] = 0.0
        for p in range(g.n):
            dev = t.call(gf.deviation_payoffs, g, s, p)
            res["dev_gap"] = max(res["dev_gap"], float(np.abs(s.blocks[p] @ dev - y).max()))
        jac = t.call(gf.payoff_jacobian, g, s)
        res["jac_rank"], _ = t.call(gf.numerical_rank, jac)
        if affine:
            rep = t.call(gf.extract_affine, g, use_zero_sum_reduction=zs)
            rank, _ = t.call(gf.numerical_rank, rep.matrix)
            res["affine_rank"], res["nullity"] = rank, rep.matrix.shape[1] - rank
            target = y[:-1] if zs else y
            level = t.call(gf.affine_level_set, rep, target, g)
            res["level_dim"] = None if level is None else level.dimension
            res["level_residual"] = (None if level is None else float(
                np.abs(rep.matrix @ level.base_point + rep.offset - target).max()))
        report = t.call(gf.fiber_report, g, s, k)
        res["fiber"] = (report.jacobian_rank, report.fiber_dimension)
        path = t.call(gf.trace_fiber, g, s, 0, LIB_TRACE_STEP, LIB_TRACE_STEPS, k_generic=k)
        t.annotate(points=len(path.points) - 1, max_steps=LIB_TRACE_STEPS)
        res["path"] = path
        return res

    def roundtrip(self, g, t):
        doc = t.call(gf.write_game, g)
        t.annotate(bytes=len(doc))
        self.doc_mb = len(doc) / 1e6
        back = t.call(gf.parse_game, doc)
        t.annotate(bytes=len(doc))
        return {"doc": doc, "back": back, "defects": t.call(gf.validate_game, back)}

    def check(self, i, res) -> list[str]:
        _, g = self.games[i]
        if i == self.document:
            return self.check_roundtrip(g, res)
        errs = []
        variant = res["variant"]
        if res["defects"]:
            errs.append(f"validate_game: {res['defects'][0]}")
        if res["zero_sum"] != (variant == "zero-sum"):
            errs.append(f"is_zero_sum={res['zero_sum']} on a {variant} game")
        if res["affine"] != (variant != "generic"):
            errs.append(f"is_jointly_affine={res['affine']} on a {variant} game")
        scale = _scale(g)
        if np.abs(res["payoff"] - uniform_payoff(g)).max() > 1e-12 * scale:
            errs.append("total_payoff at the uniform profile is not the mean payoff")
        if res["dev_gap"] > 1e-12 * scale:
            errs.append(f"deviation payoffs disagree with total_payoff by {res['dev_gap']!r}")
        if not 1 <= res["k"] <= g.n - res["zero_sum"]:
            errs.append(f"generic rank {res['k']} out of range")
        rank, dim = res["fiber"]
        if rank != res["jac_rank"] or dim != g.reduced_dim - rank:
            errs.append(f"fiber report rank {rank} / dimension {dim} inconsistent")
        if res["affine"]:
            bound = dimension_bound(g)
            if res["affine_rank"] != res["k"]:
                errs.append(f"affine rank {res['affine_rank']} != generic rank {res['k']}")
            if bound is not None and res["nullity"] < bound:
                errs.append(f"affine nullity {res['nullity']} below bound {bound}")
            if res["level_dim"] != res["nullity"] or res["level_residual"] > 1e-8 * scale:
                errs.append("level set through the uniform payoff missing or wrong")
        path = res["path"]
        errs += _trace_errors(g, path.points, path.target_payoff, path.max_payoff_drift,
                              TRACE_TOL)
        return errs

    @staticmethod
    def check_roundtrip(g, res) -> list[str]:
        back = res["back"]
        errs = [f"validate_game: {d}" for d in res["defects"][:1]]
        if back.m != g.m or not np.array_equal(back.payoffs, g.payoffs):
            errs.append("parsed game differs from the game written")
        if gf.write_game(back) != res["doc"]:
            errs.append("write -> parse -> write is not byte-identical")
        return errs

    def sizes(self) -> dict:
        out = super().sizes()
        if self.doc_mb is not None:
            out[self.games[self.document][0]]["doc_mb"] = self.doc_mb
        return out


class EquilibriaLib(LibWorkload):
    """Equilibria of 2- to 4-player games.  The n >= 3 games are a fixed,
    named set (the ROADMAP's 4x4^4 seed-3 game among them) so that the
    converged share of the searches is a property of the code, not of the
    seed; some of them converge within the budget and some do not.  The seed
    draws the 2-player games, which use exact support enumeration."""

    SEARCH_GAMES = ((3, 3, 0), (3, 3, 1), (3, 3, 2), (3, 3, 3), (3, 4, 0), (3, 4, 1),
                    (4, 3, 0), (4, 3, 1), (4, 4, 3))
    SUPPORT_SIZES = (3, 4, 5, 6)

    def __init__(self, seed, tracer):
        games = []
        for n, m, s in self.SEARCH_GAMES:
            games.append((f"{n}x{m}^{n} seed {s}", tracer.call(gf.random_game, n, (m,) * n, s)))
        for m in self.SUPPORT_SIZES:
            games.append((f"2x{m}^2", tracer.call(gf.random_game, 2, (m, m), seed * 100 + m)))
        super().__init__(games)

    def run(self, i, t):
        _, g = self.games[i]
        res = {"claims": []}          # (profile, stated epsilon) of every equilibrium found
        for vertex in t.call(gf.pure_equilibria, g):
            s = t.call(gf.pure_profile, g, vertex)
            t.call(gf.verify_equilibrium, g, s, 0.0)
            res["claims"].append((s, 0.0))
        if g.n == 2:
            mixed = t.call(gf.support_enumeration, g)
            t.annotate(pairs=_support_pairs(g))
            res["mixed"] = len(mixed)
            for rep in mixed:
                t.call(gf.verify_equilibrium, g, rep.profile, rep.epsilon)
                res["claims"].append((rep.profile, rep.epsilon))
            best = mixed[0].profile if mixed else None
        else:
            s = t.call(gf.uniform_profile, g)
            t.call(gf.nash_map, g, s)
            search = t.call(gf.find_equilibrium, g, seed=0, max_iter=SEARCH_MAX_ITER,
                            eps=SEARCH_EPS)
            t.annotate(epsilon=search.epsilon)
            res["search_converged"] = search.converged
            res["search_epsilon"] = search.epsilon
            t.call(gf.verify_equilibrium, g, search.profile, search.epsilon)
            res["claims"].append((search.profile, search.epsilon))
            best = search.profile
        if best is not None:
            res["payoff"] = t.call(gf.total_payoff, g, best)
            t.annotate(bytes=g.payoffs.nbytes)
        return res

    def check(self, i, res) -> list[str]:
        _, g = self.games[i]
        errs = []
        for profile, eps in res["claims"]:
            errs += _verify_errors(g, profile.blocks, eps, "reported equilibrium")
        if g.n == 2 and res["mixed"] < 1:
            errs.append("support enumeration found no equilibrium")
        if "search_converged" in res and res["search_converged"] != (
                res["search_epsilon"] <= SEARCH_EPS):
            errs.append("search converged flag disagrees with its epsilon")
        if "payoff" not in res or not np.all(np.isfinite(res["payoff"])):
            errs.append("no finite payoff at the reported equilibrium")
        return errs


WORKLOADS = {
    "cli-desk": cli_desk,
    "geometry-lib": GeometryLib,
    "equilibria-lib": EquilibriaLib,
}
