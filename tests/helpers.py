"""Independent oracles and corpus builders shared across the test suite.

The oracles here deliberately avoid the library's evaluation paths:
expected payoffs by literal loops over every pure profile, derivatives by
central finite differences through the public embed/evaluate surface,
affinity by explicit cross differences, projections by grid search,
documents by writing the payoff tensor one row (one profile) at a time, and
parsing by checking the whole ``json.loads`` tree of a document.
"""

import itertools
import json
from itertools import chain

import numpy as np

import gamefibers as gf
from gamefibers.equilibria import DAMPING, _enumerable, _indifference_weights, _two_mixers
from gamefibers.fibers import (
    CONSTANCY_EPSILONS,
    CORRECTOR_MAX_ITER,
    INTERIOR_MIN,
    TRACE_TOL,
    _jacobian_blocks,
    nullspace,
)
from gamefibers.gamedoc import GameFormatError
from gamefibers.games import (
    _blocks_from_reduced,
    _check_profile_count,
    _payoff_reduced,
    _player_name,
    _solve,
    _strategy_label,
)


def loop_expected_payoff(g, s, player):
    """Literal double loop: sum over every vertex of probability * payoff."""
    total = 0.0
    for idx in itertools.product(*(range(mi) for mi in g.m)):
        prob = 1.0
        for block, j in zip(s.blocks, idx):
            prob *= float(block[j])
        total += prob * float(g.payoffs[idx + (player,)])
    return total


def loop_deviation_payoffs(g, s, player):
    """Literal loop: every pure profile's payoff vector, weighted by the
    other players' probabilities, added to the row of the deviating
    player's strategy."""
    out = np.zeros((g.m[player], g.n))
    for idx in itertools.product(*(range(mi) for mi in g.m)):
        prob = 1.0
        for q, (block, j) in enumerate(zip(s.blocks, idx)):
            if q != player:
                prob *= float(block[j])
        out[idx[player]] += prob * g.payoffs[idx]
    return out


def loop_vertex_gaps(g):
    """Literal loop: at every pure profile, every player's every pure
    deviation; the largest payoff gain, 0 when none gains."""
    gaps = np.zeros(g.m)
    for idx in itertools.product(*(range(mi) for mi in g.m)):
        for player in range(g.n):
            for j in range(g.m[player]):
                dev = idx[:player] + (j,) + idx[player + 1:]
                gain = g.payoffs[dev + (player,)] - g.payoffs[idx + (player,)]
                gaps[idx] = max(gaps[idx], gain)
    return gaps


def fd_jacobian(g, s, h=1e-5):
    """Central finite differences of the payoff map through embed_profile."""
    r0 = gf.reduce_profile(s)
    jac = np.zeros((g.n, r0.size))
    for j in range(r0.size):
        up = r0.copy()
        up[j] += h
        down = r0.copy()
        down[j] -= h
        jac[:, j] = (gf.total_payoff(g, gf.embed_profile(g, up))
                     - gf.total_payoff(g, gf.embed_profile(g, down))) / (2.0 * h)
    return jac


def loop_constancy_residuals(g, s, basis):
    """Probe by probe: for each probe size eps, the largest payoff-component
    change between s and each lone point r + eps * v, v a row of ``basis``;
    0 with no rows, and a NaN change adds nothing."""
    r, base = gf.reduce_profile(s), gf.total_payoff(g, s)
    residuals = []
    for eps in CONSTANCY_EPSILONS:
        worst = 0.0
        for v in basis:
            worst = max(worst, float(np.abs(_payoff_reduced(g.payoffs, r + eps * v) - base).max()))
        residuals.append((eps, worst))
    return residuals


def loop_trace_fiber(g, s0, direction_index, step, max_steps, tol=TRACE_TOL):
    """The predictor-corrector walk from lone pieces: every corrector
    evaluation rebuilds fresh blocks from its chart point and takes a fresh
    Jacobian, the kernel and the Gauss-Newton step come from ``nullspace``
    and ``_solve`` on the first n (n - 1 zero-sum) rows, and each tangent
    is normalized by ``np.linalg.norm``.  Returns (points, drift, ending)."""
    rows = g.n - g.zero_sum
    target, jac = _jacobian_blocks(g.payoffs, s0.blocks)
    tangent = nullspace(jac[:rows], g.scale)[direction_index]
    points, drift = [gf.reduce_profile(s0)], 0.0
    for _ in range(max_steps):
        cur = points[-1] + step * tangent
        with np.errstate(all="ignore"):
            for it in range(CORRECTOR_MAX_ITER + 1):
                blocks = _blocks_from_reduced(g.m, cur)
                pay, jac = _jacobian_blocks(g.payoffs, blocks)
                f = pay - target
                residual = float(np.abs(f).max())
                if residual <= tol or it == CORRECTOR_MAX_ITER or not np.isfinite(jac).all():
                    break
                cur = cur + _solve(jac[:rows], -f[:rows], g.scale)[0]
        if not residual <= tol:
            return points, drift, "corrector_failure"
        if min(b.min() for b in blocks) < INTERIOR_MIN:
            return points, drift, "boundary"
        points.append(cur)
        drift = max(drift, residual)
        basis = nullspace(jac[:rows], g.scale)
        tangent = basis.T @ (basis @ tangent)
        norm = float(np.linalg.norm(tangent))
        if norm < 1e-8:
            return points, drift, "corrector_failure"
        tangent = tangent / norm
    return points, drift, "step_budget"


def loop_generic_rank(g, samples=64, seed=0):
    """Every sample, every payoff row: the largest numerical rank of the
    full Jacobian over ``samples`` interior points drawn as generic_rank
    draws them."""
    k = 0
    for idx in range(samples):
        s = gf.random_interior_profile(g, np.random.default_rng([seed, idx]))
        k = max(k, gf.numerical_rank(gf.payoff_jacobian(g, s))[0])
    return k


def loop_is_jointly_affine(g, tol):
    """Explicit cross-second-difference scan, written independently."""
    m = g.m
    for p in range(g.n):
        for q in range(p + 1, g.n):
            others = [axis for axis in range(g.n) if axis not in (p, q)]
            for rest in itertools.product(*(range(m[axis]) for axis in others)):
                def payoff_at(jp, jq, _rest=rest, _others=others, _p=p, _q=q):
                    idx = [0] * g.n
                    idx[_p] = jp
                    idx[_q] = jq
                    for axis, val in zip(_others, _rest):
                        idx[axis] = val
                    return g.payoffs[tuple(idx)]
                for a in range(m[p]):
                    for a2 in range(a + 1, m[p]):
                        for b in range(m[q]):
                            for b2 in range(b + 1, m[q]):
                                cross = (payoff_at(a, b) - payoff_at(a, b2)
                                         - payoff_at(a2, b) + payoff_at(a2, b2))
                                if np.abs(cross).max() > tol:
                                    return False
    return True


def grid_simplex_points(dim, steps):
    """All lattice points with coordinates i/steps summing to 1."""
    for cut in itertools.combinations(range(steps + dim - 1), dim - 1):
        counts = []
        prev = -1
        for c in cut:
            counts.append(c - prev - 1)
            prev = c
        counts.append(steps + dim - 2 - prev)
        yield np.array(counts, dtype=float) / steps


def grid_project(v, steps=120):
    """Brute-force nearest simplex lattice point to v."""
    v = np.asarray(v, dtype=float)
    best = None
    best_d = np.inf
    for point in grid_simplex_points(v.size, steps):
        d = np.sum((v - point) ** 2)
        if d < best_d:
            best, best_d = point, d
    return best


def interior_profile(g, rng, min_coord=1e-3):
    """Rejection-sampled comfortably-interior profile."""
    while True:
        s = gf.random_interior_profile(g, rng)
        if min(float(b.min()) for b in s.blocks) >= min_coord:
            return s


def corpus_shapes(count, seed, n_choices=(2, 3), m_choices=(2, 3, 4)):
    """Deterministic list of (n, m) shapes for seeded corpora."""
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(count):
        n = int(rng.choice(n_choices))
        m = [int(rng.choice(m_choices)) for _ in range(n)]
        shapes.append((n, m))
    return shapes


def loop_fill(m, entries):
    """Entry-by-entry fill: the payoff tensor, or the ValueError message
    naming the first entry that is out of range or repeats an earlier
    profile, else the first profile no entry names."""
    payoffs = np.full(tuple(m) + (len(m),), np.nan)
    seen = set()
    for profile, values in entries:
        idx = tuple(int(j) for j in profile)
        for player, j in enumerate(idx):
            if not 0 <= j < m[player]:
                return f"profile {idx}: strategy index {j} out of range for player {player}"
        if idx in seen:
            return f"duplicate profile {idx}"
        seen.add(idx)
        payoffs[idx] = values
    missing = sorted(set(itertools.product(*(range(mi) for mi in m))) - seen)
    if missing:
        return (f"missing profile {list(missing[0])} "
                f"({len(missing)} of {payoffs[..., 0].size} profiles absent)")
    return payoffs


def reference_format_number(x) -> str:
    """Value by value: integral values up to 2**53 in magnitude print as
    integers, others as their shortest round-trip decimal."""
    f = float(x)
    if f.is_integer() and -2 ** 53 <= f <= 2 ** 53:
        return str(int(f))
    return repr(f)


def reference_write_game(g):
    """Row by row: the canonical document, one payoff entry per profile in
    lexicographic order, each value formatted by ``reference_format_number``."""
    defects = gf.validate_game(g)
    if defects:
        raise ValueError(f"cannot serialize an invalid game: {defects[0]}")
    names = g.player_names or tuple(map(_player_name, range(g.n)))
    labels = g.strategy_labels or tuple(tuple(map(_strategy_label, range(mi))) for mi in g.m)
    lines = ["{", '  "players": [']
    for i in range(g.n):
        entry = json.dumps({"name": names[i], "strategies": list(labels[i])})
        lines.append("    " + entry + ("," if i < g.n - 1 else ""))
    lines.append("  ],")
    lines.append('  "payoffs": [')
    cells = itertools.product(*([str(j) for j in range(mi)] for mi in g.m))
    lines += ['    {"profile": [' + ", ".join(idx) + '], "values": ['
              + ", ".join(map(reference_format_number, row)) + "]},"
              for idx, row in zip(cells, g.payoffs.reshape(-1, g.n).tolist())]
    lines[-1] = lines[-1][:-1]
    if g.meta:
        lines.append("  ],")
        lines.append('  "meta": ' + json.dumps(g.meta, sort_keys=True))
    else:
        lines.append("  ]")
    lines.append("}\n")
    return "\n".join(lines).encode("utf-8")


def _reference_load_json(doc):
    if isinstance(doc, bytes):
        try:
            doc = doc.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GameFormatError(f"document is not UTF-8: {exc}") from exc
    try:
        return json.loads(doc)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"parse error: {exc.msg}",
                              line=exc.lineno, col=exc.colno) from exc
    except RecursionError as exc:
        raise GameFormatError("parse error: document nested too deeply") from exc
    except ValueError as exc:   # e.g. an integer literal past the digit limit
        raise GameFormatError(f"parse error: {exc}") from exc


def _first_bad(flat, allowed):
    return next((i for i, x in enumerate(flat) if type(x) not in allowed), None)


def _overflows(x):
    try:
        float(x)
    except OverflowError:
        return True
    return False


def reference_parse_game(doc):
    """The tree-walking parser: ``json.loads`` the whole document, then check
    the tree.  Top-level keys, players and the profile count first; then the
    payoff entries' structure, stopping at the first bad entry, and the scalar
    types over the flattened lists of the entries before it, each error ranked
    by (entry, check) so the first in document order is raised; then meta;
    then ``loop_fill``.  Raises the GameFormatError ``parse_game`` must raise."""
    data = _reference_load_json(doc)
    if not isinstance(data, dict):
        raise GameFormatError("document must be a JSON object")
    unknown = set(data) - {"players", "payoffs", "meta"}
    if unknown:
        raise GameFormatError(f"unexpected top-level keys: {sorted(unknown)}")
    players = data.get("players")
    if not isinstance(players, list) or not players:
        raise GameFormatError('"players" must be a nonempty list')
    names, labels = [], []
    for i, entry in enumerate(players):
        if not isinstance(entry, dict) or set(entry) - {"name", "strategies"}:
            raise GameFormatError(f"player {i} must be an object with name and strategies")
        name, strategies = entry.get("name"), entry.get("strategies")
        if not isinstance(name, str):
            raise GameFormatError(f"player {i} needs a string name")
        if (not isinstance(strategies, list) or not strategies
                or not all(isinstance(s, str) for s in strategies)):
            raise GameFormatError(f"player {i} needs a nonempty list of strategy labels")
        names.append(name)
        labels.append(strategies)
    n = len(names)
    m = tuple(len(row) for row in labels)
    try:
        _check_profile_count(m)
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc
    payoff_entries = data.get("payoffs")
    if not isinstance(payoff_entries, list):
        raise GameFormatError('"payoffs" must be a list')
    profiles, values, errors = [], [], []
    for k, entry in enumerate(payoff_entries):
        if not isinstance(entry, dict) or set(entry) != {"profile", "values"}:
            errors.append((k, 0, f"payoff entry {k} must have exactly profile and values"))
            break
        profile = entry["profile"]
        if not isinstance(profile, list) or len(profile) != n:
            errors.append((k, 0, f"payoff entry {k}: profile must list {n} strategy indices"))
            break
        profiles.append(profile)
        vals = entry["values"]
        if not isinstance(vals, list) or len(vals) != n:
            errors.append((k, 2, f"payoff entry {k}: player count mismatch in values "
                                 f"(got {len(vals) if isinstance(vals, list) else 'non-list'}, "
                                 f"need {n})"))
            break
        values.append(vals)
    flat_idx = list(chain.from_iterable(profiles))
    flat_vals = list(chain.from_iterable(values))
    at = _first_bad(flat_idx, {int})
    if at is not None:
        errors.append((at // n, 1, f"payoff entry {at // n}: strategy index must be "
                                   f"an integer, got {flat_idx[at]!r}"))
    at = _first_bad(flat_vals, {int, float})
    big = next((i for i, x in enumerate(flat_vals[:at]) if _overflows(x)), None)
    if big is not None:
        errors.append((big // n, 3, f"payoff entry {big // n}: integer value "
                                    "too large for a float"))
    elif at is not None:
        errors.append((at // n, 3, f"payoff entry {at // n}: value must be a number, "
                                   f"got {flat_vals[at]!r}"))
    if errors:
        raise GameFormatError(min(errors)[2])
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise GameFormatError('"meta" must be an object')
    payoffs = loop_fill(m, [(p, [float(x) for x in v]) for p, v in zip(profiles, values)])
    if isinstance(payoffs, str):
        raise GameFormatError(payoffs)
    return gf.GameSpec(payoffs, player_names=names, strategy_labels=labels, meta=meta)


def loop_support_enumeration(g, eps=1e-8):
    """Pair by pair: every support of player 0 (by size, then
    lexicographically) against every support of player 1, each pair's two
    indifference systems solved on its own by ``lstsq`` at its default
    cutoff, candidates verified and deduplicated within 1e-8 in that order."""

    def weights(mat):
        rows, cols = mat.shape
        system = np.zeros((rows + 1, cols + 1))
        system[:rows, :cols] = mat
        system[:rows, cols] = -1.0
        system[rows, :cols] = 1.0
        rhs = np.zeros(rows + 1)
        rhs[-1] = 1.0
        sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
        if np.abs(system @ sol - rhs).max() > 1e-9 or sol[:cols].min() < -1e-9:
            return None
        w = np.clip(sol[:cols], 0.0, None)
        return w / w.sum()

    def supports(m):
        return [c for size in range(1, m + 1) for c in itertools.combinations(range(m), size)]

    m1, m2 = g.m
    normalized = np.ldexp(g.payoffs, -np.frexp(np.abs(g.payoffs).max())[1])
    found, kept = [], []
    for support1, support2 in itertools.product(supports(m1), supports(m2)):
        block = normalized[np.ix_(support1, support2)]
        y_w = weights(block[..., 0])
        x_w = None if y_w is None else weights(block[..., 1].T)
        if x_w is None:
            continue
        x = np.zeros(m1)
        x[list(support1)] = x_w
        y = np.zeros(m2)
        y[list(support2)] = y_w
        report = gf.verify_equilibrium(g, gf.StrategyProfile([x, y]), eps)
        flat = report.profile.concat()
        if report.epsilon > eps or any(np.abs(flat - other).max() < 1e-8 for other in kept):
            continue
        kept.append(flat)
        found.append(report)
    return found


def loop_embedded_subgame_equilibria(g, eps):
    """Subgame by subgame: for every pair of players a < b and every pure
    profile of the others, ``support_enumeration`` of the two-player game
    they leave, each report embedded with the others one-hot and kept when
    it is within ``eps`` of an equilibrium of the whole game and both a and
    b mix.  Returns the flat profiles by class (k_a + k_b, |k_a - k_b|, a,
    b, k_a, k_b), k the support sizes; no budget."""
    found = {}
    for a, b in itertools.combinations(range(g.n), 2):
        others = [q for q in range(g.n) if q not in (a, b)]
        for rest in itertools.product(*(range(g.m[q]) for q in others)):
            index = [slice(None)] * g.n
            for q, j in zip(others, rest):
                index[q] = j
            sub = gf.GameSpec(g.payoffs[tuple(index)][..., [a, b]])
            for report in gf.support_enumeration(sub, eps):
                x, y = report.profile.blocks
                ka, kb = int((x > 0).sum()), int((y > 0).sum())
                if min(ka, kb) < 2:
                    continue
                blocks = [np.zeros(mi) for mi in g.m]
                blocks[a], blocks[b] = x, y
                for q, j in zip(others, rest):
                    blocks[q][j] = 1.0
                profile = gf.StrategyProfile(blocks)
                if gf.verify_equilibrium(g, profile, eps).converged:
                    key = (ka + kb, abs(ka - kb), a, b, ka, kb)
                    found.setdefault(key, []).append(profile.concat())
    return found


def loop_subgame_stack(payoffs, a, b):
    """Slice by slice: players a and b's payoffs (m_a, m_b, 2) at every
    pure profile of the others, in lexicographic order."""
    n = payoffs.ndim - 1
    others = [q for q in range(n) if q not in (a, b)]
    slices = []
    for rest in itertools.product(*(range(payoffs.shape[q]) for q in others)):
        index = [slice(None)] * n
        for q, j in zip(others, rest):
            index[q] = j
        slices.append(payoffs[tuple(index)][..., [a, b]])
    return np.array(slices)


def class_dominance(stack, tau, k_a, k_b):
    """One size class's conditional-dominance mask, built for that class
    alone from its own supports: (slices, supports of k_a, supports of k_b)
    in lexicographic order, true where a strategy of one support is beaten
    by another pure strategy of its player, by more than tau, against every
    strategy of the other support."""
    m_a, m_b = stack.shape[1:3]
    supports_a = np.array(list(itertools.combinations(range(m_a), k_a)))
    supports_b = np.array(list(itertools.combinations(range(m_b), k_b)))
    beats = [p[:, None] - p[:, :, None] > tau
             for p in (stack[..., 0], stack[..., 1].swapaxes(1, 2))]
    dominated = [beat[..., other].all(axis=-1).any(axis=2)[:, own].any(axis=2)
                 for beat, own, other in zip(beats, (supports_a, supports_b),
                                             (supports_b, supports_a))]
    return dominated[0] | dominated[1].swapaxes(1, 2)


def two_sided_support_enumeration(g, eps=1e-8):
    """Class by class, both sides whole and no pair pruned: for each size
    class (k1, k2), one ``_indifference_weights`` stack of player 0's
    systems (giving y) and one of player 1's (giving x), over every pair of
    the class, each built pair by pair; the pairs where both gave weights
    are verified one by one with ``verify_equilibrium`` in support order
    (by size, then lexicographically, player 0's support outermost) and
    deduplicated within 1e-8 against the reports kept so far."""
    m1, m2 = g.m
    normalized = np.ldexp(g.payoffs, -np.frexp(np.abs(g.payoffs).max())[1])
    candidates = []
    for k1, k2 in itertools.product(range(1, m1 + 1), range(1, m2 + 1)):
        supports1 = list(itertools.combinations(range(m1), k1))
        supports2 = list(itertools.combinations(range(m2), k2))
        pairs = list(itertools.product(enumerate(supports1), enumerate(supports2)))
        blocks = [normalized[np.ix_(s1, s2)] for (_, s1), (_, s2) in pairs]
        y_w = _indifference_weights(np.array([block[..., 0] for block in blocks]))
        x_w = _indifference_weights(np.array([block[..., 1].T for block in blocks]))
        for ((a, s1), (b, s2)), x_row, y_row in zip(pairs, x_w, y_w):
            if np.isnan(x_row[0]) or np.isnan(y_row[0]):
                continue
            x, y = np.zeros(m1), np.zeros(m2)
            x[list(s1)], y[list(s2)] = x_row, y_row
            candidates.append(((k1, a, k2, b), x, y))
    found = []
    for _, x, y in sorted(candidates, key=lambda c: c[0]):
        report = gf.verify_equilibrium(g, gf.StrategyProfile([x, y]), eps)
        flat = report.profile.concat()
        if report.epsilon <= eps and not any(
                np.abs(flat - other.profile.concat()).max() < 1e-8 for other in found):
            found.append(report)
    return found


def loop_nash_map(g, s):
    """The Nash map block by block from the public payoffs: block i plus its
    gains phi = max(0, deviation payoff - payoff), over 1 + sum(phi); None
    where a block's gains sum past the float range (or hold a NaN)."""
    pay = gf.total_payoff(g, s)
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):  # a gain past the float range reads as inf
        for i, b in enumerate(s.blocks):
            phi = np.maximum(0.0, gf.deviation_payoffs(g, s, i)[:, i] - pay[i])
            total = phi.sum()
            if not np.isfinite(total):
                return None
            blocks.append((b + phi) / (1.0 + total))
    return blocks


def loop_find_equilibrium(g, seed=0, max_iter=10_000, eps=1e-6, restarts=8):
    """Start by start: the vertex scan, support enumeration on 2 players
    and the two-mixer classes on 3 or more first, then the damped
    improvement iteration from the uniform profile and each
    seeded restart in turn, every iterate a checked ``StrategyProfile``.
    A start ends at its first epsilon within ``eps``, after ``max_iter``
    steps, or where the map has no image; a converged start ends the
    search, and a profile replaces the best only when its epsilon is
    strictly smaller.  It is the oracle of the lockstep, not of the sweep:
    each profile goes through the lone ``verify_equilibrium`` and
    ``loop_nash_map``."""
    with np.errstate(over="ignore"):    # a gain past the float range reads as inf
        gaps = loop_vertex_gaps(g)
    vertex = np.unravel_index(np.argmin(gaps), g.m)
    best_profile, best_gap = gf.pure_profile(g, vertex), float(gaps[vertex])
    if best_gap > eps and _enumerable(g):
        found = gf.support_enumeration(g, eps)
        if found:
            return min(found, key=lambda report: report.epsilon)
    if best_gap > eps and g.n >= 3:
        found = _two_mixers(g, eps)
        if found is not None:
            return found
    for t in range(restarts + 1):
        if best_gap <= eps:
            break
        cur = (gf.random_interior_profile(g, np.random.default_rng([seed, t])) if t
               else gf.uniform_profile(g))
        for it in range(max_iter + 1):
            gap = gf.verify_equilibrium(g, cur, eps).epsilon
            if gap < best_gap:
                best_profile, best_gap = cur, gap
            if best_gap <= eps or it == max_iter:
                break
            mapped = loop_nash_map(g, cur)
            if mapped is None:
                break
            cur = gf.StrategyProfile([(1.0 - DAMPING) * b + DAMPING * mb
                                      for b, mb in zip(cur.blocks, mapped)])
    return gf.verify_equilibrium(g, best_profile, eps)
