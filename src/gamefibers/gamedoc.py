"""Game documents: a canonical JSON format, built-in fixtures, and seeded
random game generation.

A document lists the players with their strategy labels and one payoff
entry per pure profile:

    {
      "players": [
        {"name": "man1", "strategies": ["M", "A"]},
        {"name": "man2", "strategies": ["M", "A"]}
      ],
      "payoffs": [
        {"profile": [0, 0], "values": [0, 0]},
        ...
      ]
    }

The writer is canonical: profiles in lexicographic order, integral numbers
without a decimal point, other numbers in shortest round-trip decimal.
Writing then parsing reproduces the game exactly, and parsing then writing
reproduces canonical bytes exactly.  The writer takes one ``repr`` per
payoff over the flat tensor and, by the rule of ``format_number``, prints
the ones a numpy mask finds integral as integers.

The parser works a whole array at a time, with the cyclic garbage collector
paused (a parse tree holds no cycles).  After ``json.loads`` it checks
each payoff entry's structure (an object with exactly ``profile`` and
``values``, both lists of one item per player), then the scalar types once
over the flattened lists (indices are ints, values ints or floats, never
booleans), and builds one index array and one float array from them.
The fill it shares with ``GameSpec.from_entries`` then gives every entry
one flat profile index, fills the tensor with one scatter and finds
out-of-range, duplicate and missing profiles from the same indices.  Whatever fails, the error
names the first entry at fault, as an entry-by-entry check would: type and
structure errors first, then range and duplicate errors, then the first
missing profile.  Hostile input (an integer beyond the float range, nesting
deeper than the interpreter's recursion limit) raises GameFormatError too.
"""

from __future__ import annotations

import gc
import json
from itertools import chain, product

import numpy as np

from .games import (
    GameSpec,
    _check_profile_count,
    _fill,
    _player_name,
    _strategy_label,
    validate_game,
)


_ENTRY_KEYS = frozenset({"profile", "values"})
_EXACT_INT = 2 ** 53    # larger integral floats keep their decimal point


class GameFormatError(ValueError):
    """A malformed game document; carries line/column for syntax errors."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


def _first_bad(flat, allowed):
    """Position of the first scalar whose type is not in ``allowed``, or
    None.  Types are matched exactly, so ``bool`` never passes for ``int``."""
    if set(map(type, flat)) <= allowed:
        return None
    return next(i for i, x in enumerate(flat) if type(x) not in allowed)


def _load_json(doc: bytes | str):
    """The decoded JSON value; the decoded text is dropped on return, so it
    does not stay alive beside the parsed objects."""
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


def parse_game(doc: bytes | str) -> GameSpec:
    """Parse a game document into a GameSpec.

    Structural problems raise GameFormatError: syntax errors (with line and
    column), duplicate or missing profiles, out-of-range strategy indices,
    and payoff rows whose length does not match the player count.  Value
    problems such as non-finite payoffs are left for ``validate_game``.

    The cyclic garbage collector stays paused until the parse tree is
    freed: a process-wide switch, restored on every path and never enabled
    if the caller had disabled it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(doc)
    finally:
        if enabled:
            gc.enable()


def _parse(doc: bytes | str) -> GameSpec:
    data = _load_json(doc)
    if not isinstance(data, dict):
        raise GameFormatError("document must be a JSON object")
    unknown = set(data) - {"players", "payoffs", "meta"}
    if unknown:
        raise GameFormatError(f"unexpected top-level keys: {sorted(unknown)}")
    players = data.get("players")
    if not isinstance(players, list) or not players:
        raise GameFormatError('"players" must be a nonempty list')
    names = []
    labels = []
    for i, entry in enumerate(players):
        if not isinstance(entry, dict) or set(entry) - {"name", "strategies"}:
            raise GameFormatError(f"player {i} must be an object with name and strategies")
        name = entry.get("name")
        strategies = entry.get("strategies")
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
    # Structure entry by entry, stopping at the first bad one; then scalar
    # types over the flattened lists of the entries before it.  Each error is
    # ranked by (entry, check order within an entry), so the one reported is
    # the first in document order.
    profiles, values, errors = [], [], []
    for k, entry in enumerate(payoff_entries):
        if not isinstance(entry, dict) or entry.keys() != _ENTRY_KEYS:
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
    try:
        numbers = np.array(flat_vals[:at], dtype=float)
    except OverflowError:
        at = next(i for i, x in enumerate(flat_vals) if _overflows(x))
        errors.append((at // n, 3, f"payoff entry {at // n}: integer value "
                                   "too large for a float"))
    else:
        if at is not None:
            errors.append((at // n, 3, f"payoff entry {at // n}: value must be a number, "
                                       f"got {flat_vals[at]!r}"))
    if errors:
        raise GameFormatError(min(errors)[2])
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise GameFormatError('"meta" must be an object')
    try:
        payoffs = _fill(m, flat_idx, numbers.reshape(-1, n))
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc
    return GameSpec(payoffs, player_names=names, strategy_labels=labels, meta=meta)


def _overflows(x: int) -> bool:
    try:
        float(x)
    except OverflowError:
        return True
    return False


def format_number(x) -> str:
    """Shortest decimal that round-trips; integral values up to 2**53 in
    magnitude print as integers.  The document writer uses the same rule."""
    f = float(x)
    if f.is_integer() and -_EXACT_INT <= f <= _EXACT_INT:
        return str(int(f))
    return repr(f)


def write_game(g: GameSpec) -> bytes:
    """Canonical UTF-8 serialization of a valid game."""
    defects = validate_game(g)
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
    # format_number's rule: integral payoffs (-0.0 too) as ints, then one repr each
    flat = g.payoffs.reshape(-1)
    numbers = flat.tolist()
    integral = (np.trunc(flat) == flat) & (np.abs(flat) <= _EXACT_INT)
    for k, v in zip(np.flatnonzero(integral).tolist(), flat[integral].astype(np.int64).tolist()):
        numbers[k] = v
    text = list(map(repr, numbers))
    del numbers
    # profiles in lexicographic order, which is the C order of the tensor
    cells = map(", ".join, product(*([str(j) for j in range(mi)] for mi in g.m)))
    rows = map(", ".join, zip(*[iter(text)] * g.n))
    lines += [f'    {{"profile": [{idx}], "values": [{row}]}},' for idx, row in zip(cells, rows)]
    del text, rows     # rows still holds the text list: free it before the join
    lines[-1] = lines[-1][:-1]     # no comma after the last entry
    if g.meta:
        lines.append("  ],")
        lines.append('  "meta": ' + json.dumps(g.meta, sort_keys=True))
    else:
        lines.append("  ]")
    lines.append("}\n")
    return "\n".join(lines).encode("utf-8")


def builtin_game(name: str) -> GameSpec:
    """Named fixture games.

    ``rps``: two-player rock-paper-scissors, winner +1 / loser -1 / draw 0.
    ``bar``: the two-bachelor courting game; both players may court the
    most attractive prospect (M) or an average one (A), and being the sole
    M-suitor wins 1 from the other player.
    """
    if name == "rps":
        wins = np.array([
            [0.0, -1.0, 1.0],
            [1.0, 0.0, -1.0],
            [-1.0, 1.0, 0.0],
        ])
        payoffs = np.stack([wins, -wins], axis=-1) + 0.0   # clear negative zeros
        return GameSpec(payoffs,
                        player_names=("player1", "player2"),
                        strategy_labels=(("rock", "paper", "scissors"),) * 2)
    if name == "bar":
        payoffs = np.array([
            [[0.0, 0.0], [1.0, -1.0]],
            [[-1.0, 1.0], [0.0, 0.0]],
        ])
        return GameSpec(payoffs,
                        player_names=("man1", "man2"),
                        strategy_labels=(("M", "A"), ("M", "A")))
    raise ValueError(f"unknown builtin game {name!r} (have: rps, bar)")


def random_game(n: int, m, seed: int, zero_sum: bool = False,
                jointly_affine: bool = False) -> GameSpec:
    """Seeded random game with payoffs drawn uniform in [-1, 1].

    With ``jointly_affine`` the tensor is a sum of per-(player, component)
    terms, each depending on a single player's pure strategy, so the joint
    affinity test passes by construction.  With ``zero_sum`` the last
    component at each profile is minus the sum of the others.  Identical
    arguments give identical games.
    """
    if n < 2:
        raise ValueError("need at least 2 players")
    m = tuple(int(x) for x in m)
    if len(m) != n:
        raise ValueError(f"need {n} strategy counts, got {len(m)}")
    if any(mi < 2 for mi in m):
        raise ValueError("every player needs at least 2 pure strategies")
    _check_profile_count(m)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    if jointly_affine:
        tensor = np.zeros(m + (n,))
        for i in range(n):
            for p in range(n):
                coeff = rng.uniform(-1.0, 1.0, size=m[p])
                shape = [1] * n
                shape[p] = m[p]
                tensor[..., i] += coeff.reshape(shape)
    else:
        tensor = rng.uniform(-1.0, 1.0, size=m + (n,))
    if zero_sum:
        tensor[..., -1] = -tensor[..., :-1].sum(axis=-1)
    labels = tuple(tuple(map(_strategy_label, range(mi))) for mi in m)
    names = tuple(map(_player_name, range(n)))
    return GameSpec(tensor, player_names=names, strategy_labels=labels)
