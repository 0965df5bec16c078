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
reproduces canonical bytes exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .games import GameSpec, _check_profile_count, validate_game


class GameFormatError(ValueError):
    """A malformed game document; carries line/column for syntax errors."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


def _number(x, what):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise GameFormatError(f"{what} must be a number, got {x!r}")
    return float(x)


def _index(x, what):
    if isinstance(x, bool) or not isinstance(x, int):
        raise GameFormatError(f"{what} must be an integer, got {x!r}")
    return x


def parse_game(doc: bytes | str) -> GameSpec:
    """Parse a game document into a GameSpec.

    Structural problems raise GameFormatError: syntax errors (with line and
    column), duplicate or missing profiles, out-of-range strategy indices,
    and payoff rows whose length does not match the player count.  Value
    problems such as non-finite payoffs are left for ``validate_game``.
    """
    if isinstance(doc, bytes):
        try:
            text = doc.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GameFormatError(f"document is not UTF-8: {exc}") from exc
    else:
        text = doc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"parse error: {exc.msg}",
                              line=exc.lineno, col=exc.colno) from exc
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
    entries = []
    for k, entry in enumerate(payoff_entries):
        if not isinstance(entry, dict) or set(entry) != {"profile", "values"}:
            raise GameFormatError(f"payoff entry {k} must have exactly profile and values")
        profile = entry["profile"]
        values = entry["values"]
        if not isinstance(profile, list) or len(profile) != n:
            raise GameFormatError(f"payoff entry {k}: profile must list {n} strategy indices")
        idx = tuple(_index(j, f"payoff entry {k}: strategy index") for j in profile)
        if not isinstance(values, list) or len(values) != n:
            raise GameFormatError(
                f"payoff entry {k}: player count mismatch in values "
                f"(got {len(values) if isinstance(values, list) else 'non-list'}, need {n})")
        vals = [_number(v, f"payoff entry {k}: value") for v in values]
        entries.append((idx, vals))
    meta = data.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise GameFormatError('"meta" must be an object')
    try:
        g = GameSpec.from_entries(m, entries, player_names=names,
                                  strategy_labels=labels, meta=meta)
    except ValueError as exc:
        raise GameFormatError(str(exc)) from exc
    if g.missing:
        raise GameFormatError(f"missing profile {list(min(g.missing))} "
                              f"({len(g.missing)} of {g.num_profiles} profiles absent)")
    return g


def format_number(x) -> str:
    """Shortest decimal that round-trips; integral values print as integers."""
    f = float(x)
    if f == int(f) and abs(f) <= 2 ** 53:
        return str(int(f))
    return repr(f)


def write_game(g: GameSpec) -> bytes:
    """Canonical UTF-8 serialization of a valid game."""
    defects = validate_game(g)
    if defects:
        raise ValueError(f"cannot serialize an invalid game: {defects[0]}")
    names = g.player_names or tuple(f"player{i + 1}" for i in range(g.n))
    labels = g.strategy_labels or tuple(tuple(f"s{j}" for j in range(mi)) for mi in g.m)
    lines = ["{", '  "players": [']
    for i in range(g.n):
        entry = json.dumps({"name": names[i], "strategies": list(labels[i])})
        lines.append("    " + entry + ("," if i < g.n - 1 else ""))
    lines.append("  ],")
    profiles = list(np.ndindex(*g.m))
    lines.append('  "payoffs": [')
    for k, idx in enumerate(profiles):
        cells = ", ".join(str(int(j)) for j in idx)
        vals = ", ".join(format_number(v) for v in g.payoffs[idx])
        entry = '{"profile": [' + cells + '], "values": [' + vals + "]}"
        lines.append("    " + entry + ("," if k < len(profiles) - 1 else ""))
    if g.meta:
        lines.append("  ],")
        lines.append('  "meta": ' + json.dumps(g.meta, sort_keys=True))
    else:
        lines.append("  ]")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


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
    labels = tuple(tuple(f"s{j}" for j in range(mi)) for mi in m)
    names = tuple(f"player{i + 1}" for i in range(n))
    return GameSpec(tensor, player_names=names, strategy_labels=labels)
