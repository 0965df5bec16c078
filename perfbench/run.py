"""gamefibers benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes over the workload's script of operations, one at a
time, until S seconds have passed, checks every output, and prints the
metrics by name and unit.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run measures an
untraced and a traced loop and reports the per-layer metrics.  Results,
run metadata and (traced) spans are written under perfbench/out/.

Workloads: cli-desk, geometry-lib, equilibria-lib; see
perfbench/README.md for why each was chosen and what each layer metric
is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the runs measure the single-threaded library on a small
# shared machine, where a second BLAS thread only adds noise.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("cli-desk", "geometry-lib", "equilibria-lib")
LIB_LAYERS = ("gamedoc", "games", "affine", "fibers", "equilibria")
# Every run makes at least two passes over its workload's script (24 to
# 26 operations), so op_tail_s can sit at one percentile above the median
# with ten samples beyond it in every run.
MIN_PASSES = 2
SETUP_PROBES = 6          # fresh-process set-ups whose median is setup_s
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60
SPEED_REPS = 150          # numpy kernel iterations per speed reading
SPEED_REF_S = 0.010       # the numpy kernel's time at the reference speed
SPEED_FRESH_S = 0.05      # a reading older than this is not reused
# The process kernel: a fresh interpreter importing only third-party and
# standard modules, none of the repo's code.
PROCESS_KERNEL = "import numpy, json, subprocess"
PROCESS_REF_S = 0.200     # the process kernel's time at the reference speed

# Which end-to-end metric each layer should move, and where.
PREDICTIONS = {
    "cli": "op_p50_s, ops_per_s on cli-desk",
    "gamedoc": "ops_per_s, peak_rss_mb on geometry-lib; setup_s everywhere",
    "games": "ops_per_s on geometry-lib, equilibria-lib",
    "affine": "op_p50_s on geometry-lib (affine games); no change on equilibria-lib",
    "fibers": "op_p50_s, op_tail_s on geometry-lib",
    "equilibria": "ops_per_s, eq_converged_frac on equilibria-lib",
}

END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "peak_rss_mb": "MB", "eq_converged_frac": "ratio",
}

PER_LAYER = {
    "cli.interp_s": "s", "cli.import_s": "s", "cli.import_scipy_s": "s", "cli.self_s": "s",
    **{f"{layer}.{key}": unit for layer in LIB_LAYERS
       for key, unit in (("self_s", "s"), ("calls", "1/op"), ("errors", "count"))},
    "gamedoc.parse_s": "s", "gamedoc.parse_mb_per_s": "MB/s", "gamedoc.write_s": "s",
    "gamedoc.write_mb_per_s": "MB/s", "gamedoc.random_game_s": "s", "gamedoc.doc_mb": "MB",
    "games.validate_s": "s", "games.total_payoff_s": "s", "games.deviation_payoffs_s": "s",
    "games.tensor_mb": "MB", "games.contraction_gb_per_s": "GB/s",
    "affine.is_jointly_affine_s.affine": "s", "affine.is_jointly_affine_s.generic": "s",
    "affine.extract_affine_s": "s", "affine.level_set_s": "s",
    "fibers.payoff_jacobian_s": "s", "fibers.numerical_rank_s": "s",
    "fibers.generic_rank_s": "s", "fibers.fiber_report_s": "s", "fibers.trace_fiber_s": "s",
    "fibers.trace_points": "count", "fibers.trace_step_s": "s",
    "fibers.trace_accept_ratio": "ratio",
    "equilibria.nash_map_s": "s", "equilibria.find_equilibrium_s": "s",
    "equilibria.search_epsilon_max": "payoff", "equilibria.support_enumeration_s": "s",
    "equilibria.support_pairs": "count", "equilibria.support_pair_s": "s",
    "equilibria.verify_s": "s",
    **{f"{layer}.share": "ratio" for layer in ("cli",) + LIB_LAYERS},
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------- set-up

def setup(workload: str, seed: int, traced: bool):
    """Import the library and build the workload's seeded inputs; returns
    (seconds, workload, tracer)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    from tracing import Tracer
    tracer = Tracer(traced)
    w = workloads.WORKLOADS[workload](seed, tracer)
    return time.perf_counter() - t0, w, tracer


def _probe(argv, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, cwd=ROOT, env=env,
                          timeout=PROBE_TIMEOUT_S, check=True)


def setup_probes(args, clock) -> list[tuple[float, float]]:
    """Set-up time measured in fresh processes, as the run's own set-up;
    (raw, scaled to the reference speed) per probe."""
    argv = [sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        seconds, _, factor = clock.measure(lambda: float(_probe(argv).stdout.split()[-1]))
        out.append((seconds, seconds * factor))
    return out


def import_probes() -> dict:
    """Interpreter start, fresh-process `import gamefibers` and the share of
    that import spent in scipy (from -X importtime)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def wall(argv):
        t0 = time.perf_counter()
        _probe(argv, env)
        return time.perf_counter() - t0

    interp = statistics.median(wall([sys.executable, "-c", "pass"])
                               for _ in range(IMPORT_PROBES))
    imp = statistics.median(wall([sys.executable, "-c", "import gamefibers"])
                            for _ in range(IMPORT_PROBES))
    log = _probe([sys.executable, "-X", "importtime", "-c", "import gamefibers"], env).stderr
    return {"cli.interp_s": interp, "cli.import_s": imp - interp,
            "cli.import_scipy_s": scipy_import_s(log.decode())}


def scipy_import_s(log: str) -> float:
    """Sum of the cumulative times of the outermost scipy modules in a
    -X importtime log.  Children print before their parent and are
    indented deeper, so reading backwards gives each line's parent."""
    total = 0.0
    stack = []                         # (indent, module) of open ancestors
    for line in reversed(log.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue                   # the header line
        indent = len(name) - len(name.lstrip())
        module = name.strip()
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent_is_scipy = bool(stack) and stack[-1][1].split(".")[0] == "scipy"
        if module.split(".")[0] == "scipy" and not parent_is_scipy:
            total += int(cumulative) * 1e-6
        stack.append((indent, module))
    return total


# ---------------------------------------------------------------- the loop

class Speedometer:
    """Reads the host's current speed with a fixed kernel of the
    benchmark's own, just before and just after each operation.

    On a shared 2-core Xeon virtual machine, small-array numpy code ran
    up to 1.7x slower for tens of seconds at a time, and a pure-Python
    loop up to 1.5x, with no change in the code.  Scaling an operation's
    time by the kernel's reference time over its mean time around the
    operation reports it at one reference speed; the raw times are kept
    beside them.  The kernel is not the library's code, so a change to
    the library moves scaled and raw times alike.  One reading serves as
    the "after" of an operation and the "before" of the next.

    This kernel (small numpy contractions, a 5x20 SVD and a Python loop,
    about 10 ms) suits in-process library operations.  Process start and
    imports slow down differently; ProcessSpeedometer suits those.
    """

    ref_s = SPEED_REF_S

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.tensor = rng.standard_normal((5,) * 5)
        self.vectors = [rng.standard_normal(5) for _ in range(4)]
        self.matrix = rng.standard_normal((5, 20))
        self.kernel_s()           # the first call pays numpy's lazy set-up
        self.last, self.last_at = None, 0.0

    def kernel_s(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(SPEED_REPS):
            x = self.tensor
            for v in self.vectors:
                x = np.tensordot(v, x, axes=(0, 0))
            np.linalg.svd(self.matrix, compute_uv=False)
            sum(float(y) for y in x)
        return time.perf_counter() - t0

    def measure(self, fn):
        """Run fn(); returns (its result, seconds, speed factor), where
        seconds times the factor is the time at the reference speed."""
        fresh = self.last is not None and time.perf_counter() - self.last_at < SPEED_FRESH_S
        before = self.last if fresh else self.kernel_s()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        self.last = self.kernel_s()
        self.last_at = time.perf_counter()
        return result, seconds, 2 * self.ref_s / (before + self.last)


class ProcessSpeedometer(Speedometer):
    """The host's speed read from a fresh interpreter that imports numpy
    (about 0.2 s), for operations that start a process and import the
    package: CLI commands and set-up.  Over seven minutes of alternating
    readings and `cli-desk` set-ups, the set-up's 30-second medians
    spread (IQR/median) 0.10 raw, 0.14 scaled by the numpy kernel and
    0.04 scaled by this one."""

    ref_s = PROCESS_REF_S

    def __init__(self):
        self.last, self.last_at = None, 0.0

    def kernel_s(self) -> float:
        t0 = time.perf_counter()
        _probe([sys.executable, "-c", PROCESS_KERNEL])
        return time.perf_counter() - t0


def closed_loop(w, tracer, clock, seconds: float, seen: dict, first_op: int = 0):
    """Whole passes over the script, one operation at a time, until
    `seconds` have passed and MIN_PASSES passes are done.
    Each output is checked as soon as its operation has ended, outside the
    timed part, and then dropped, so that what the run holds, and with it
    peak_rss_mb, does not grow with the number of passes.  Returns the
    records, one per operation: (script index, latency, scaled latency,
    failure reasons, whether each of its equilibrium searches converged)."""
    records = []
    t0 = time.perf_counter()
    for passes in range(1, sys.maxsize):
        for i in w.script:
            tracer.op = first_op + len(records)

            def op():
                try:
                    with tracer.span("op"):
                        return w.run(i, tracer), None
                except Exception as exc:      # a failed operation is counted, not fatal
                    return None, f"{type(exc).__name__}: {exc}"

            (output, error), latency, factor = clock.measure(op)
            errs = [error] if error is not None else check(w, i, output, seen)
            flags = [] if errs else w.searches(i, output)
            records.append((i, latency, latency * factor, errs, flags))
        if passes >= MIN_PASSES and time.perf_counter() - t0 >= seconds:
            return records


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of the sorted values."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(w) -> float:
    """The highest quantile that has at least ten samples beyond it in
    every run of the workload, never below the median.  It is fixed per
    workload, so the tail is the same percentile in every run."""
    return max(0.5, 1.0 - 10.0 / (MIN_PASSES * len(w.script)))


def check(w, i, output, seen: dict) -> list[str]:
    """Reasons the output of operation i is wrong.  Identical CLI outputs
    of one command are checked once; ``seen`` keeps their verdicts."""
    key = (i, output) if w.kind == "cli" else None
    if key is not None and key in seen:
        return seen[key]
    try:
        errs = w.check(i, output)
    except Exception as exc:          # a check that cannot run is a failed check
        errs = [f"check raised {type(exc).__name__}: {exc}"]
    if key is not None:
        seen[key] = errs
    return errs


def converged_frac(records) -> tuple[float, int]:
    flags = [c for r in records for c in r[4]]
    # With no searches in the workload nothing failed to converge.
    return (sum(flags) / len(flags) if flags else 1.0), len(flags)


# ---------------------------------------------------------------- layers

def _mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _rate(spans, key, scale):
    sized = [s for s in spans if key in s["info"]]
    busy = sum(s["end"] - s["start"] for s in sized)
    return sum(s["info"][key] for s in sized) / busy / scale if busy > 0 else 0.0


def layer_metrics(w, spans, traced_records, probes) -> dict:
    from tracing import by_name, duration, self_times

    selfs = self_times(spans)
    names = by_name(spans)

    def mean_s(name, keep=lambda s: True):
        return _mean(duration(s) for s in names.get(name, []) if keep(s))

    if w.kind == "cli":
        # Library spans come from one in-process replay of each command.
        in_op = lambda s: isinstance(s["op"], str) and s["op"].startswith("replay")  # noqa: E731
        n_ops = len(w.script)
        proc = {i: statistics.median(r[1] for r in traced_records if r[0] == i)
                for i in w.script}
    else:
        in_op = lambda s: isinstance(s["op"], int)  # noqa: E731
        n_ops = len(traced_records)
    m = dict(probes)
    for layer in LIB_LAYERS:
        mine = [(s, t) for s, t in zip(spans, selfs) if s["layer"] == layer]
        m[f"{layer}.self_s"] = sum(t for s, t in mine if in_op(s)) / n_ops
        m[f"{layer}.calls"] = sum(1 for s, _ in mine if in_op(s)) / n_ops
        m[f"{layer}.errors"] = sum(1 for s, _ in mine if s["error"])
    if w.kind == "cli":
        lib = {i: sum(duration(s) for s in spans
                      if s["op"] == f"replay-{i}" and s["layer"] in LIB_LAYERS)
               for i in w.script}
        startup = probes["cli.interp_s"] + probes["cli.import_s"]
        m["cli.self_s"] = _mean(proc[i] - startup - lib[i] for i in w.script)
        op_mean = _mean(proc.values())
        m["cli.share"] = (probes["cli.import_s"] + m["cli.self_s"]) / op_mean
    else:
        m["cli.self_s"] = 0.0
        op_mean = _mean(r[1] for r in traced_records)
        m["cli.share"] = 0.0
    for layer in LIB_LAYERS:
        m[f"{layer}.share"] = m[f"{layer}.self_s"] / op_mean

    parse, write = names.get("gamedoc.parse_game", []), names.get("gamedoc.write_game", [])
    docs = [s["info"]["bytes"] for s in parse + write if "bytes" in s["info"]]
    m.update({
        "gamedoc.parse_s": mean_s("gamedoc.parse_game"),
        "gamedoc.parse_mb_per_s": _rate(parse, "bytes", 1e6),
        "gamedoc.write_s": mean_s("gamedoc.write_game"),
        "gamedoc.write_mb_per_s": _rate(write, "bytes", 1e6),
        "gamedoc.random_game_s": mean_s("gamedoc.random_game"),
        "gamedoc.doc_mb": _mean(docs) / 1e6,
    })
    pay = names.get("games.total_payoff", [])
    m.update({
        "games.validate_s": mean_s("games.validate_game"),
        "games.total_payoff_s": mean_s("games.total_payoff"),
        "games.deviation_payoffs_s": mean_s("games.deviation_payoffs"),
        "games.tensor_mb": _mean(s["info"]["bytes"] for s in pay if "bytes" in s["info"]) / 1e6,
        # computed: tensor bytes over total_payoff time, not a measured bandwidth
        "games.contraction_gb_per_s": _rate(pay, "bytes", 1e9),
    })
    m.update({
        "affine.is_jointly_affine_s.affine":
            mean_s("affine.is_jointly_affine", lambda s: s["info"].get("affine") is True),
        "affine.is_jointly_affine_s.generic":
            mean_s("affine.is_jointly_affine", lambda s: s["info"].get("affine") is False),
        "affine.extract_affine_s": mean_s("affine.extract_affine"),
        "affine.level_set_s": mean_s("affine.affine_level_set"),
    })
    traces = names.get("fibers.trace_fiber", [])
    points = sum(s["info"].get("points", 0) for s in traces)
    budget = sum(s["info"].get("max_steps", 0) for s in traces)
    m.update({
        "fibers.payoff_jacobian_s": mean_s("fibers.payoff_jacobian"),
        "fibers.numerical_rank_s": mean_s("fibers.numerical_rank"),
        "fibers.generic_rank_s": mean_s("fibers.generic_rank"),
        "fibers.fiber_report_s": mean_s("fibers.fiber_report"),
        "fibers.trace_fiber_s": mean_s("fibers.trace_fiber"),
        "fibers.trace_points": points / len(traces) if traces else 0.0,
        "fibers.trace_step_s": sum(map(duration, traces)) / points if points else 0.0,
        "fibers.trace_accept_ratio": points / budget if budget else 0.0,
    })
    supp = names.get("equilibria.support_enumeration", [])
    pairs = sum(s["info"].get("pairs", 0) for s in supp)
    m.update({
        "equilibria.nash_map_s": mean_s("equilibria.nash_map"),
        "equilibria.find_equilibrium_s": mean_s("equilibria.find_equilibrium"),
        "equilibria.search_epsilon_max": max(
            (s["info"]["epsilon"] for s in names.get("equilibria.find_equilibrium", [])
             if "epsilon" in s["info"]), default=0.0),
        "equilibria.support_enumeration_s": mean_s("equilibria.support_enumeration"),
        "equilibria.support_pairs": pairs / len(supp) if supp else 0.0,
        "equilibria.support_pair_s": sum(map(duration, supp)) / pairs if pairs else 0.0,
        "equilibria.verify_s": mean_s("equilibria.verify_equilibrium"),
    })
    return m


def call_summary(spans, label) -> dict:
    """Time per public function and operation (the game it served), for
    the record; ``label`` maps a span's operation id to a name."""
    from tracing import duration
    groups = {}
    for s in spans:
        key = f"{s['name']} [{label(s['op'])}]"
        groups.setdefault(key, []).append(duration(s))
    return {k: {"calls": len(v), "mean_s": _mean(v), "median_s": statistics.median(v)}
            for k, v in sorted(groups.items())}


# ---------------------------------------------------------------- report

def metadata(args, w, samples: dict) -> dict:
    import numpy
    import scipy
    import gamefibers as gf
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT,
                                 timeout=10, check=True, text=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        l3 = 0
    cache = (f"{l3 / 2**20:.0f} MiB" if l3 > 0 else
             "unreported size (105 MiB on the 2-core Xeon of the reference figures)")
    max_mb = gf.MAX_PROFILES * 6 * 8 / 1e6
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"] + " (OPENBLAS_NUM_THREADS)",
        "samples": samples, "inputs": w.sizes(),
        "note": (f"MAX_PROFILES={gf.MAX_PROFILES} caps 6-player tensors at {max_mb:.0f} MB, "
                 f"below 4x an L3 cache of {cache}, so "
                 "bytes-moved figures are computed from array sizes, not measured "
                 "bandwidth."),
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gamefibers" / "__init__.py").is_file():
        print(f"error: no gamefibers sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A traced run also records the set-up's calls (random_game, write_game).
    setup_s, w, tracer = setup(args.workload, args.seed, traced=bool(args.trace))
    if args.setup_only:
        print(repr(setup_s))
        return 0
    clock = Speedometer() if w.kind == "lib" else ProcessSpeedometer()
    tracer.enabled = False
    seen = {}
    records = closed_loop(w, tracer, clock, args.seconds, seen)
    usage = resource.RUSAGE_CHILDREN if w.kind == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    all_records = list(records)
    n = len(records)
    q = tail_quantile(w)
    samples = {"ops": n, "passes": n // len(w.script), "tail_quantile": q}

    def timings(column):
        lat = [r[column] for r in records]
        return {"op_p50_s": statistics.median(lat), "op_tail_s": quantile(lat, q),
                "ops_per_s": n / sum(lat)}

    raw = timings(1)
    setups = []
    if args.trace:
        tracer.enabled = True
        traced = closed_loop(w, tracer, clock, args.seconds, seen, first_op=n)
        all_records += traced
        if w.kind == "cli":
            for i in w.script:
                tracer.op = f"replay-{i}"
                with tracer.span("replay"):
                    w.replay(i, tracer)
        probes = import_probes()
        metrics = layer_metrics(w, tracer.spans, traced, probes)
        traced_rate = len(traced) / sum(r[2] for r in traced)
        metrics["trace.overhead_frac"] = 1.0 - traced_rate / timings(2)["ops_per_s"]
        units = PER_LAYER
        samples["traced_ops"] = len(traced)
    else:
        setups = setup_probes(args, ProcessSpeedometer())
        raw["setup_s"] = statistics.median(r for r, _ in setups)
        conv, searches = converged_frac(records)
        metrics = {"setup_s": statistics.median(s for _, s in setups), **timings(2),
                   "peak_rss_mb": peak_rss_mb, "eq_converged_frac": conv}
        units = END_TO_END
        samples.update(setup_runs=len(setups), searches=searches)

    failures = [(w.label(r[0]), r[3]) for r in all_records if r[3]]
    failed_frac = len(failures) / len(all_records)
    meta = metadata(args, w, samples)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {n} ({samples['passes']} passes of {len(w.script)})" +
          ("" if args.trace else "; times at the reference speed, raw in brackets"))
    for name, unit in units.items():
        scaled = name in raw and not args.trace
        note = f"  [raw {_fmt(raw[name])}]" if scaled else ""
        if name == "op_tail_s":
            note += (f"  (p{100 * q:.1f} of {n} samples, "
                     f"{n - 1 - math.floor(q * (n - 1))} beyond)")
        elif name == "eq_converged_frac":
            note = f"  ({samples['searches']} searches)"
        elif name.endswith(".share"):
            note = f"  -> {PREDICTIONS[name.split('.')[0]]}"
        print(f"{name:40s} {_fmt(metrics[name]):>14s} {unit}{note}")
    print(f"{'ops_failed_frac':40s} {_fmt(failed_frac):>14s} ratio  "
          f"({len(failures)} of {len(all_records)} operations)")
    for label, errs in failures[:10]:
        print(f"FAILED {label}: {'; '.join(errs)}")
    print("# metadata " + json.dumps(meta, sort_keys=True))

    result = {"correct": not failures, "attempted": len(all_records),
              "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = {"raw_metrics": raw, "ops_failed_frac": failed_frac, "failures": failures[:50],
             "metadata": meta, "setup_in_process_s": setup_s,
             "setup_probes": [{"raw_s": r, "scaled_s": sc} for r, sc in setups],
             "operations": [(w.label(r[0]), r[1], r[2]) for r in all_records]}
    if args.trace:
        def label(op):
            if op is None:
                return "setup"
            if isinstance(op, str):                 # "replay-<script index>"
                return w.label(int(op.split("-")[1]))
            return w.label(all_records[op][0])
        extra["calls"] = call_summary(tracer.spans, label)
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps({**result, **extra}, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
