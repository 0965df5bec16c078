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
reproduces canonical bytes exactly.  The writer formats ``_CHUNK`` profiles
at a time, one ``repr`` per payoff (by the rule of ``format_number``, the
ones a numpy mask finds integral print as integers), and appends each
encoded chunk to one growing buffer.

The parser streams.  It walks the top-level object and the payoffs array
itself, as ``json.loads`` would, and hands each payoff entry, and every
other value, to the json module's C scanner.  Each entry's structure is
checked (an object with exactly ``profile`` and ``values``, both lists of
one item per player) and its items appended to flat buffers before the next
entry is scanned; every ``_CHUNK`` entries the scalar types are checked once
(indices are ints, values ints or floats, never booleans) and the buffers
become an index array and a float array.  So no parse tree of the entries
exists.  The fill it shares with ``GameSpec.from_entries`` then gives every
entry one flat profile index, fills the tensor with one scatter and finds
out-of-range, duplicate and missing profiles from the same indices.
Whatever fails, the error is the one ``json.loads`` and an entry-by-entry
check of its tree would give: syntax errors first, with their line and
column; then type and structure errors, then range and duplicate errors,
each naming the first entry at fault; then the first missing profile.
Hostile input (an integer beyond the float range, nesting deeper than the
interpreter's recursion limit) raises GameFormatError too.
"""

from __future__ import annotations

import io
import json
from itertools import product
from typing import NamedTuple

import numpy as np

from .games import (
    GameSpec,
    _check_profile_count,
    _fill,
    _index_array,
    _player_name,
    _strategy_label,
    validate_game,
)


_ENTRY_KEYS = frozenset({"profile", "values"})
_EXACT_INT = 2 ** 53    # larger integral floats keep their decimal point
_CHUNK = 4096           # payoff entries folded, or profiles written, at a time
_SEP = ",\n    {"       # the writer's layout from one payoff entry to the next
_scan = json.JSONDecoder().scan_once     # the json module's C scanner, one value a call
_ws = json.decoder.WHITESPACE.match


class GameFormatError(ValueError):
    """A malformed game document; carries line/column for syntax errors."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class _Payoffs(NamedTuple):
    """A scanned payoffs array: where it opens, the player count it was
    folded for (None: not folded), and one (index array, float64 value
    array) pair per chunk or the message of the first entry at fault."""
    start: int
    n: int | None
    parts: list | None = None
    error: str | None = None


def _first_bad(flat, allowed):
    """Position of the first scalar whose type is not in ``allowed``, or
    None.  Types are matched exactly, so ``bool`` never passes for ``int``."""
    if set(map(type, flat)) <= allowed:
        return None
    return next(i for i, x in enumerate(flat) if type(x) not in allowed)


def _load_json(doc: bytes | str) -> dict | None:
    """The top-level fields, the payoffs array folded (``_fold``), or None
    for JSON that is not an object.  Syntax errors are ``json.loads``'s: its
    scanner reads every value and the loops here mirror its object and array
    loops.  The decoded text is dropped on return."""
    if isinstance(doc, bytes):
        try:
            doc = doc.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GameFormatError(f"document is not UTF-8: {exc}") from exc
    try:
        if doc.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", doc, 0)
        at = _ws(doc).end()
        if doc[at:at + 1] == "{":
            fields, at = _object(doc, at)
        else:
            fields, at = None, _scan(doc, at)[1]
        at = _ws(doc, at).end()
        if at != len(doc):
            raise json.JSONDecodeError("Extra data", doc, at)
        return fields
    except (json.JSONDecodeError, StopIteration) as exc:
        if isinstance(exc, StopIteration):      # the scanner found no value at exc.value
            exc = json.JSONDecodeError("Expecting value", doc, exc.value)
        raise GameFormatError(f"parse error: {exc.msg}",
                              line=exc.lineno, col=exc.colno) from exc
    except RecursionError as exc:
        raise GameFormatError("parse error: document nested too deeply") from exc
    except ValueError as exc:   # e.g. an integer literal past the digit limit
        raise GameFormatError(f"parse error: {exc}") from exc


def _player_count(fields):
    players = fields.get("players")
    return len(players) if isinstance(players, list) and players else None


def _object(s, at):
    """The top-level object opening at s[at], as a dict of its fields (the
    last of repeated keys wins), and the index past it."""
    fields = {}
    at = _ws(s, at + 1).end()
    if s[at:at + 1] == "}":
        return fields, at + 1
    while True:
        if s[at:at + 1] != '"':
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", s, at)
        key, at = _scan(s, at)
        at = _ws(s, at).end()
        if s[at:at + 1] != ":":
            raise json.JSONDecodeError("Expecting ':' delimiter", s, at)
        at = _ws(s, at + 1).end()
        if key == "payoffs" and s[at:at + 1] == "[":
            fields[key], at = _fold(s, at, _player_count(fields))
        else:
            fields[key], at = _scan(s, at)
        at = _ws(s, at).end()
        if s[at:at + 1] == "}":
            break
        if s[at:at + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", s, at)
        at = _ws(s, at + 1).end()
    payoffs, n = fields.get("payoffs"), _player_count(fields)
    if isinstance(payoffs, _Payoffs) and payoffs.n != n:   # players named after the payoffs
        fields["payoffs"] = _fold(s, payoffs.start, n)[0]
    return fields, at + 1


def _fold(s, start, n):
    """The payoffs array opening at s[start] as ``_Payoffs``, and the index
    past it.  Each entry is checked for a game of n players and appended to
    flat buffers before the next is scanned; every ``_CHUNK`` entries the
    buffers' scalar types are checked once and they become arrays.  After
    the first entry at fault, or with n None, entries are only scanned."""
    parts, errors, profiles, values = [], [], [], []
    folding, done, limit = n is not None, 0, _CHUNK * (n or 0)
    at = _ws(s, start + 1).end()
    more = s[at:at + 1] != "]"      # an empty array has no entry
    while more:
        entry, at = _scan(s, at)
        if s.startswith(_SEP, at):     # the canonical layout: no whitespace scan
            at += len(_SEP) - 1
        else:
            at = _ws(s, at).end()
            more = s[at:at + 1] != "]"
            if s[at:at + 1] == ",":
                at = _ws(s, at + 1).end()
            elif more:
                raise json.JSONDecodeError("Expecting ',' delimiter", s, at)
        if not folding:
            continue
        try:
            profile, vals = entry["profile"], entry["values"]
        except (KeyError, TypeError):   # not an object with both keys
            profile = vals = None
        if (type(profile) is list is type(vals) and len(entry) == 2
                and len(profile) == n == len(vals)):
            profiles += profile
            values += vals
            if len(values) < limit:
                continue
        else:   # the entry at fault; a sound profile still has its indices checked
            k = done + len(values) // n
            if type(entry) is not dict or entry.keys() != _ENTRY_KEYS:
                errors.append((k, 0, f"payoff entry {k} must have exactly profile and values"))
            elif type(profile) is not list or len(profile) != n:
                errors.append((k, 0, f"payoff entry {k}: profile must list {n} strategy indices"))
            else:
                profiles += profile
                got = len(vals) if type(vals) is list else "non-list"
                errors.append((k, 2, f"payoff entry {k}: player count mismatch in values "
                                     f"(got {got}, need {n})"))
        parts.append(_chunk(profiles, values, n, done, errors))
        done += len(values) // n
        profiles, values = [], []
        folding = not errors
    if folding:
        parts.append(_chunk(profiles, values, n, done, errors))
    if errors:
        return _Payoffs(start, n, error=min(errors)[2]), at + 1
    return _Payoffs(start, n, parts if folding else None), at + 1


def _chunk(profiles, values, n, done, errors):
    """One chunk's flat buffers as an index and a float64 value array, or
    None with its scalar type errors appended to ``errors`` as (entry,
    check, message), entries counted from ``done``."""
    at = _first_bad(profiles, {int})
    if at is not None:
        k = done + at // n
        errors.append((k, 1, f"payoff entry {k}: strategy index must be "
                              f"an integer, got {profiles[at]!r}"))
    at = _first_bad(values, {int, float})
    try:
        numbers = np.array(values if at is None else values[:at], dtype=float)
    except OverflowError:
        at = next(i for i, x in enumerate(values) if _overflows(x))
        errors.append((done + at // n, 3, f"payoff entry {done + at // n}: integer value "
                                          "too large for a float"))
    else:
        if at is not None:
            errors.append((done + at // n, 3, f"payoff entry {done + at // n}: value must "
                                              f"be a number, got {values[at]!r}"))
    return None if errors else (_index_array(profiles), numbers)


def parse_game(doc: bytes | str) -> GameSpec:
    """Parse a game document into a GameSpec.

    Structural problems raise GameFormatError: syntax errors (with line and
    column), duplicate or missing profiles, out-of-range strategy indices,
    and payoff rows whose length does not match the player count.  Value
    problems such as non-finite payoffs are left for ``validate_game``.
    """
    data = _load_json(doc)
    if data is None:
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
        name = entry.get("name")
        strategies = entry.get("strategies")
        if not isinstance(name, str):
            raise GameFormatError(f"player {i} needs a string name")
        if (not isinstance(strategies, list) or not strategies
                or not all(isinstance(s, str) for s in strategies)):
            raise GameFormatError(f"player {i} needs a nonempty list of strategy labels")
        names.append(name)
        labels.append(strategies)
    m = tuple(len(row) for row in labels)
    try:
        _check_profile_count(m)
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc
    payoffs = data.get("payoffs")
    if not isinstance(payoffs, _Payoffs):
        raise GameFormatError('"payoffs" must be a list')
    if payoffs.error:
        raise GameFormatError(payoffs.error)
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise GameFormatError('"meta" must be an object')
    indices, values = (np.concatenate(arrays) for arrays in zip(*payoffs.parts))
    del data, payoffs       # the chunks are freed before the fill
    try:
        tensor = _fill(m, indices, values.reshape(-1, len(m)))
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc
    return GameSpec(tensor, player_names=names, strategy_labels=labels, meta=meta)


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
    lines += ["  ],", '  "payoffs": [', ""]
    out = io.BytesIO()      # grown in place and returned without a copy
    out.write("\n".join(lines).encode("utf-8"))
    flat = g.payoffs.reshape(-1, g.n)
    # profiles in lexicographic order, which is the C order of the tensor
    cells = map(", ".join, product(*([str(j) for j in range(mi)] for mi in g.m)))
    for lo in range(0, len(flat), _CHUNK):
        part = flat[lo:lo + _CHUNK].reshape(-1)
        # format_number's rule: integral payoffs (-0.0 too) as ints, then one repr each
        numbers = part.tolist()
        integral = (np.trunc(part) == part) & (np.abs(part) <= _EXACT_INT)
        for k, v in zip(np.flatnonzero(integral).tolist(), part[integral].astype(np.int64).tolist()):
            numbers[k] = v
        rows = map(", ".join, zip(*[map(repr, numbers)] * g.n))
        out.write(",\n".join([f'    {{"profile": [{idx}], "values": [{row}]}}'
                              for row, idx in zip(rows, cells)]).encode("utf-8"))
        out.write(b",\n" if lo + _CHUNK < len(flat) else b"\n")
    meta = ',\n  "meta": ' + json.dumps(g.meta, sort_keys=True) if g.meta else ""
    out.write(f"  ]{meta}\n}}\n".encode("utf-8"))
    return out.getvalue()


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
