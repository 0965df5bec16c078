"""Normal-form games: payoff tensors and the multilinear expected-payoff map.

An n-player game lives in a dense tensor of shape (m_1, ..., m_n, n): the
leading axes enumerate each player's pure strategies, the trailing axis
holds every player's payoff at that pure profile.  Mixed strategies are
probability vectors on per-player simplices, and expected payoff is the
multilinear extension of the tensor: the payoff at a profile is the sum
over all pure profiles of the product of the selected probabilities times
the stored payoff vector.

The module holds the library's two shared kernels, which ``affine``,
``fibers`` and ``equilibria`` import from here: ``_deviations``, the one
contraction of the payoff tensor, and ``_svd``, the one matrix
decomposition, with its rank cutoff and the minimum-norm ``_solve``.
``_svd`` factors each matrix once, divided by the power of two 2^e of its
largest entry (or of the rank scale, if larger), and ``_solve`` divides
the right-hand side by 2^e too.  Both take a stack of profiles or
matrices, worked by broadcast operations, or a lone one, worked by the
same BLAS and LAPACK calls on its own 1-D or 2-D arrays without the
stack's added axes and rank sets (the trace's corrector steps are all
lone); a lone result is the stack-of-one slice bit for bit.

All objects here are immutable after construction (arrays are marked
read-only), so games and profiles can be shared freely across threads.
A game caches max|T|, its zero-sum flag and its normalized payoffs (times
2^-e, max|T| in [2^(e-1), 2^e)) on first use; racing threads compute the
same value twice.  One rule: a toleranced decision (zero-sum, affinity,
rank, equilibrium epsilon) reads the normalized payoffs against tolerance
times max|T| times 2^-e, so no power-of-two rescale changes it and no sum
overflows; exact comparisons (``pure_equilibria``) read the stored ones.
Payoffs spanning over 2^1022 (1e308 beside 1e-300) round their small
entries there: ``is_zero_sum(g, 0.0)`` can read a 1e-300 sum as zero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TAU_SIMPLEX = 1e-9    # how far input vectors may sit off their simplex
TAU_EVAL = 1e-10      # relative tolerance for payoff identities (zero-sum etc.)
MAX_PROFILES = 10 ** 6
# Limits and defaults of fibers and equilibria, kept here so the CLI's parser
# reads them without importing those modules.
DEFAULT_SAMPLES = 64             # generic_rank's default sample budget
MAX_SAMPLES = 4096               # and its largest
MAX_TRACE_STEPS = 10_000         # largest step budget of trace_fiber
TRACE_TOL = 1e-10                # largest payoff residual the trace corrector accepts
SEARCH_EPS = 1e-6                # default epsilon of find_equilibrium and the CLI


def _check_profile_count(m) -> None:
    """Refuse more than MAX_PROFILES pure profiles, before any allocation."""
    n_profiles = math.prod(m)
    if n_profiles > MAX_PROFILES:
        raise ValueError(
            f"game too large: {n_profiles} pure profiles (limit {MAX_PROFILES})")


def _index_array(profiles) -> np.ndarray:
    """Strategy indices (any nesting of ints, or an index array) as int64,
    or as exact Python ints when one is too big for int64."""
    try:
        return np.asarray(profiles, dtype=np.int64)
    except OverflowError:   # too big for int64, so out of range: keep it exact
        return np.array(profiles, dtype=object)


def _fill(shape, profiles, values) -> np.ndarray:
    """Payoff tensor holding one entry at every pure profile.

    ``values`` has one row of payoffs per entry and ``profiles`` the
    matching strategy indices (any nesting of E * n ints).  Each entry gets
    one flat profile index and one scatter fills the tensor.  The first
    entry that is out of range or repeats an earlier profile raises
    ValueError; so does a profile no entry names, reported as the first
    such profile with the count absent.  Shared by ``GameSpec.from_entries``
    and the document parser.
    """
    n = len(shape)
    idx = _index_array(profiles).reshape(values.shape)
    in_range = ((idx >= 0) & (idx < np.array(shape, dtype=np.int64))).all(axis=1)
    good = len(idx) if in_range.all() else int(np.argmin(in_range))
    strides = np.array([math.prod(shape[p + 1:]) for p in range(n)], dtype=np.int64)
    flat = idx[:good].astype(np.int64) @ strides
    seen = np.zeros(math.prod(shape), dtype=bool)
    seen[flat] = True
    filled = np.count_nonzero(seen)
    if filled < good:
        order = np.argsort(flat, kind="stable")
        repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
        raise ValueError(f"duplicate profile {tuple(int(j) for j in idx[repeats.min()])}")
    if good < len(idx):
        row = tuple(int(j) for j in idx[good])
        player = next(p for p, (j, mi) in enumerate(zip(row, shape)) if not 0 <= j < mi)
        raise ValueError(f"profile {row}: strategy index {row[player]} "
                         f"out of range for player {player}")
    if filled < seen.size:
        first = np.unravel_index(np.argmin(seen), shape)
        raise ValueError(f"missing profile {[int(j) for j in first]} "
                         f"({seen.size - filled} of {seen.size} profiles absent)")
    payoffs = np.empty(shape + (n,))
    payoffs.reshape(seen.size, n)[flat] = values
    return payoffs


def _player_name(i: int) -> str:
    """Display name of player i when a game names none: player1, player2, ..."""
    return f"player{i + 1}"


def _strategy_label(j: int) -> str:
    """Display label of strategy j when a game labels none: s0, s1, ..."""
    return f"s{j}"


class GameSpec:
    """Immutable normal-form game.

    Parameters
    ----------
    payoffs : array_like, shape (m_1, ..., m_n, n)
        Payoff vector at every pure-strategy profile, copied into a
        read-only float64 tensor of the game's own.
    player_names, strategy_labels : optional
        Display names; ``_player_name`` and ``_strategy_label`` give the
        defaults when absent.
    meta : dict, optional
        Free-form annotations carried through serialization.
    """

    def __init__(self, payoffs, player_names=None, strategy_labels=None, meta=None):
        self._take(np.array(payoffs, dtype=float), player_names, strategy_labels, meta)

    @classmethod
    def _adopt(cls, payoffs, player_names=None, strategy_labels=None, meta=None):
        """The game over ``payoffs``, a fresh float64 tensor that its
        producer (``_fill``, ``random_game``) hands over and keeps no other
        reference to: taken as it is, without the constructor's copy."""
        return cls.__new__(cls)._take(payoffs, player_names, strategy_labels, meta)

    def _take(self, arr, player_names, strategy_labels, meta) -> GameSpec:
        """Check the tensor ``arr``, make it read-only and store the game in
        ``self``, which is returned."""
        if arr.ndim < 2:
            raise ValueError("payoff tensor needs player axes plus a trailing payoff axis")
        _check_profile_count(arr.shape[:-1])
        arr.setflags(write=False)
        self.payoffs = arr
        self.player_names = (tuple(str(x) for x in player_names)
                             if player_names is not None else None)
        self.strategy_labels = (
            tuple(tuple(str(x) for x in row) for row in strategy_labels)
            if strategy_labels is not None else None)
        self.meta = dict(meta) if meta else None
        return self

    @classmethod
    def from_entries(cls, m, entries, player_names=None, strategy_labels=None,
                     meta=None):
        """Build a game from (profile, values) pairs.

        Every pure profile needs exactly one entry, as in a game document.
        Length errors are reported first, then range and duplicate errors,
        each naming the first entry at fault, then the first missing
        profile.
        """
        shape = tuple(int(x) for x in m)
        n = len(shape)
        _check_profile_count(shape)
        pairs = list(entries)
        profiles = [tuple(int(j) for j in profile) for profile, _ in pairs]
        short = next((idx for idx in profiles if len(idx) != n), None)
        if short is not None:
            raise ValueError(f"profile {short} does not have {n} entries")
        values = [np.asarray(v, dtype=float) for _, v in pairs]
        bad = next((k for k, v in enumerate(values) if v.shape != (n,)), None)
        if bad is not None:
            raise ValueError(f"profile {profiles[bad]}: expected {n} payoff values")
        payoffs = _fill(shape, profiles, np.reshape(values, (len(pairs), n)))
        return cls._adopt(payoffs, player_names, strategy_labels, meta=meta)

    @cached_property
    def scale(self) -> float:
        """max|T|, the unit of every payoff tolerance; non-finite when a payoff is."""
        return max(float(self.payoffs.max(initial=0.0)), -float(self.payoffs.min(initial=0.0)))

    @cached_property
    def _exponent(self) -> int:
        """e with max|T| in [2^(e-1), 2^e), 0 for the zero game."""
        return int(np.frexp(self.scale)[1])

    @cached_property
    def _normalized_payoffs(self) -> np.ndarray:
        """The payoffs times 2^-e, read-only: exact, max|entry| in [0.5, 1).
        At e = 0 it is the payoff tensor itself, not a copy."""
        arr = np.ldexp(self.payoffs, -self._exponent) if self._exponent else self.payoffs
        arr.setflags(write=False)
        return arr

    @cached_property
    def zero_sum(self) -> bool:
        """``is_zero_sum`` at its default tolerance, decided once."""
        return is_zero_sum(self)

    @property
    def n(self) -> int:
        """Number of players."""
        return self.payoffs.ndim - 1

    @property
    def m(self) -> tuple[int, ...]:
        """Pure-strategy count per player."""
        return self.payoffs.shape[:-1]

    @property
    def num_profiles(self) -> int:
        return math.prod(self.m)

    @property
    def num_coords(self) -> int:
        """Total pure-strategy count over all players (ambient dimension)."""
        return sum(self.m)

    @property
    def reduced_dim(self) -> int:
        """Dimension of the strategy space: one coordinate dropped per player."""
        return self.num_coords - self.n

    def label(self, player: int, strategy: int) -> str:
        if self.strategy_labels is not None:
            return self.strategy_labels[player][strategy]
        return _strategy_label(strategy)

    def __eq__(self, other):
        if not isinstance(other, GameSpec):
            return NotImplemented
        return (self.payoffs.shape == other.payoffs.shape
                and np.array_equal(self.payoffs, other.payoffs)
                and self.player_names == other.player_names
                and self.strategy_labels == other.strategy_labels
                and self.meta == other.meta)

    def __repr__(self):
        return f"GameSpec(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Defect:
    """A named invariant violation found by ``validate_game``."""

    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


def validate_game(g: GameSpec) -> list[Defect]:
    """All invariant violations of a game, empty when it is well formed.

    Non-finite payoffs make one defect, which names the first in C order
    and counts the rest."""
    defects = []
    if g.n < 2:
        defects.append(Defect("player count", f"need at least 2 players, got {g.n}"))
    for i, mi in enumerate(g.m):
        if mi < 1:
            defects.append(Defect("empty strategy set",
                                  f"player {i} has no pure strategies"))
    if g.payoffs.shape[-1] != g.n:
        defects.append(Defect(
            "payoff vector length",
            f"payoff axis has length {g.payoffs.shape[-1]}, expected {g.n}"))
    bad = ~np.isfinite(g.payoffs)
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        profile = tuple(int(j) for j in at[:-1])
        defects.append(Defect(
            "non-finite payoff",
            f"payoff to player {int(at[-1])} at profile {profile} is {float(g.payoffs[at])} "
            f"({np.count_nonzero(bad)} of {bad.size} payoff entries non-finite)"))
    if g.player_names is not None and len(g.player_names) != g.n:
        defects.append(Defect("label shape", "player_names length does not match player count"))
    if g.strategy_labels is not None:
        if (len(g.strategy_labels) != g.n
                or any(len(row) != mi for row, mi in zip(g.strategy_labels, g.m))):
            defects.append(Defect("label shape", "strategy_labels do not match strategy counts"))
    return defects


def _require_simplex(i: int, b: np.ndarray) -> None:
    """Raise ValueError unless block i, a nonempty vector, is finite, in
    [0, 1] and sums to 1, each up to ``TAU_SIMPLEX``: ``StrategyProfile``'s
    check."""
    if not np.isfinite(b).all():
        raise ValueError(f"block {i} has non-finite entries")
    if b.min() < -TAU_SIMPLEX or b.max() > 1.0 + TAU_SIMPLEX:
        raise ValueError(f"block {i} is off-simplex: entries outside [0, 1]")
    total = b.sum()
    if abs(total - 1.0) > TAU_SIMPLEX:
        raise ValueError(f"block {i} is off-simplex: sums to {total!r}")


class StrategyProfile:
    """One probability vector per player (a point of the product simplex)."""

    def __init__(self, blocks):
        out = []
        for i, block in enumerate(blocks):
            b = np.array(block, dtype=float)
            if b.ndim != 1 or b.size == 0:
                raise ValueError(f"block {i} must be a nonempty vector")
            _require_simplex(i, b)
            b.setflags(write=False)
            out.append(b)
        if not out:
            raise ValueError("profile needs at least one block")
        self.blocks = tuple(out)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    def concat(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    def __eq__(self, other):
        if not isinstance(other, StrategyProfile):
            return NotImplemented
        return (self.shape == other.shape
                and all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)))

    def __repr__(self):
        inner = "; ".join(",".join(format(float(x), ".4g") for x in b) for b in self.blocks)
        return f"StrategyProfile({inner})"


def uniform_profile(g: GameSpec) -> StrategyProfile:
    return StrategyProfile([np.full(mi, 1.0 / mi) for mi in g.m])


def _index(value, what: str) -> int:
    """``value`` as an int if it is an integer (numpy integers included),
    by ``operator.index``; ValueError naming it otherwise, so 2.7 is never
    read as 2."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _player_index(player, n: int) -> int:
    """``player`` as an int, ValueError unless an integer and IndexError
    unless in range(n)."""
    p = _index(player, "player index")
    if not 0 <= p < n:
        raise IndexError(f"player index {p} out of range")
    return p


def _strategy_indices(profile, m) -> tuple[int, ...]:
    """One int strategy index per player of strategy counts ``m``: ValueError
    unless integers, len(m) of them; IndexError unless each is in range."""
    idx = tuple(_index(j, "strategy index") for j in profile)
    if len(idx) != len(m):
        raise ValueError(f"profile {idx} does not have {len(m)} entries")
    for player, (mi, j) in enumerate(zip(m, idx)):
        if not 0 <= j < mi:
            raise IndexError(f"strategy index {j} out of range for player {player}")
    return idx


def pure_profile(g: GameSpec, profile) -> StrategyProfile:
    """The vertex profile where each player plays the given pure strategy."""
    idx = _strategy_indices(profile, g.m)
    return StrategyProfile([np.eye(1, mi, j)[0] for mi, j in zip(g.m, idx)])


def random_interior_profile(g: GameSpec, rng) -> StrategyProfile:
    """Independent uniform (flat Dirichlet) draw on each player's simplex.

    Implemented as normalized exponential draws, which is absolutely
    continuous: lower-dimensional exceptional sets are missed almost surely.
    """
    blocks = []
    for mi in g.m:
        e = rng.exponential(size=mi)
        blocks.append(e / e.sum())
    return StrategyProfile(blocks)


def _require_match(g: GameSpec, s: StrategyProfile):
    if s.shape != g.m:
        raise ValueError(f"profile shape {s.shape} does not match game strategy counts {g.m}")


def profile_probability(s: StrategyProfile, profile) -> float:
    """Probability that play realizes the given pure profile: the product of
    the coordinates each player assigns to their selected pure strategy."""
    return math.prod(float(b[j]) for b, j in zip(s.blocks, _strategy_indices(profile, s.shape)))


def _deviations(payoffs: np.ndarray, blocks,
                players=None) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """The payoff vector and the deviation payoffs of ``players`` (every
    player when None) from one sweep, the only contraction of the payoff
    tensor.  Entry p of the list is (m_p, n) for each player asked for and
    for the last player, whose rows are the chain itself; the rest are None.

    The blocks may share a leading stack shape, ``(*stack, m_p)`` each; a
    lone profile (1-D blocks) is the empty stack.  The payoff is then
    (*stack, n) and the rows (*stack, m_p, n).  Every contraction is one
    vector-matrix product (one BLAS gemv) per slice: a stack's is a
    broadcast matmul of (..., 1, K) views, a lone profile's is a plain
    ``v @ mat`` of its 1-D operands, without the views and squeezes.  So
    slice k of a stacked sweep equals the lone sweep of profile k bit for
    bit.

    The prefix chain contracts the player axes one at a time, first to
    last.  Before player p's axis goes, the chain's head is read as
    (*stack, m_p, R_p, n) and all later axes are contracted at once by one
    matmul with w_p, the flattened outer product of blocks p+1, ..., n-1: a
    pass over contiguous memory, with no transposed copy.  The w_p are built
    only down to the first player asked for, so ``players=()`` is the bare
    chain and reads the tensor once; the payoff is the last block times it.
    """
    n = len(blocks)
    wanted = range(n) if players is None else players
    suffix = [blocks[-1]]
    for b in blocks[-2:min(wanted, default=n - 1):-1]:
        suffix.append((b[..., :, None] * suffix[-1][..., None, :]).reshape(*b.shape[:-1], -1))
    devs = [None] * n
    head = payoffs.reshape(-1)      # the chain, flat behind its stack axes (none at first)
    if blocks[-1].ndim == 1:        # a lone profile
        for p, b in enumerate(blocks[:-1]):
            if p in wanted:
                w = suffix[n - 2 - p]
                devs[p] = w @ head.reshape(b.size, w.size, -1)
            head = b @ head.reshape(b.size, -1)
        devs[-1] = head.reshape(blocks[-1].size, -1)
        return blocks[-1] @ devs[-1], devs
    for p, b in enumerate(blocks[:-1]):
        lead = head.shape[:-1]
        if p in wanted:
            w = suffix[n - 2 - p]
            rows = head.reshape(*lead, b.shape[-1], w.shape[-1], -1)
            devs[p] = (w[..., None, None, :] @ rows)[..., 0, :]
        head = (b[..., None, :] @ head.reshape(*lead, b.shape[-1], -1))[..., 0, :]
    devs[-1] = head.reshape(*head.shape[:-1], blocks[-1].shape[-1], -1)
    return (blocks[-1][..., None, :] @ devs[-1])[..., 0, :], devs


# Relative singular-value cutoff: sigma is negligible below max(rows, cols)
# * 2**-46 * max(sigma_1, max|T|), so crumbs of an all-but-zero Jacobian
# (entries are payoff differences, at most 2 max|T|) are not rank.
RANK_RTOL_EXPONENT = -46


def _svd(mat, vectors: bool, scale: float) -> tuple[int | np.ndarray, np.ndarray,
                                                    np.ndarray | None, np.ndarray | None, int]:
    """Rank, singular values, U and V^T (with ``vectors``) and the exponent
    e of a finite matrix, or of each matrix in a stack ``(..., rows, cols)``,
    all from one SVD of mat / 2^e at rank scale ``scale`` / 2^e, so the
    singular values are those of mat / 2^e.  e puts max(max|entry|,
    ``scale``) in [2^(e-1), 2^e), so each matrix is factored at one scale
    and rescaling mat and ``scale`` by a power of two changes only e
    (while no entry passes the float range or falls below 2^-1022).
    A stack's rank is an array with one rank per matrix, counted by one
    broadcast comparison; a lone matrix's is an int, counted from its
    singular values as Python floats against the same cutoff, so it is the
    stack-of-one count.  This is the library's one decomposition: every
    rank, kernel and solve uses its cutoff."""
    a = np.asarray(mat, dtype=float)
    if a.ndim < 2:
        a = np.atleast_2d(a)
    top = np.abs(a).max(initial=0.0)
    if not top < np.inf:
        raise ValueError("rank needs a finite matrix")
    if not 0 <= scale < np.inf:
        raise ValueError("scale must be finite and non-negative")
    e = math.frexp(max(top, scale))[1]
    a, scale = np.ldexp(a, -e), math.ldexp(scale, -e)
    if vectors:
        u, s, vt = np.linalg.svd(a)
    else:
        u, s, vt = None, np.linalg.svd(a, compute_uv=False), None
    cut = max(a.shape[-2:]) * 2.0 ** RANK_RTOL_EXPONENT
    if a.ndim == 2:
        values = s.tolist()
        cut *= max(values[0], scale) if values else 0.0     # sigma_1, or none when empty
        return sum(v > cut for v in values), s, u, vt, e
    smax = np.fmax(s[..., :1], scale)       # sigma_1, or none for an empty matrix
    return (s > cut * smax).sum(axis=-1), s, u, vt, e


def _solve(mat, rhs, scale: float) -> tuple[np.ndarray, int | np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solution x of mat @ x = rhs, with the
    rank and V^T of mat, from one ``_svd`` at ``scale``: rhs / 2^e is
    solved against mat / 2^e, which gives the same x.  Only the
    coefficients up to the rank enter, so the solve drops exactly the
    directions the kernel ``vt[rank:]`` keeps.  A lone matrix is solved
    on its int rank by two vector-matrix products; in a stack, each matrix
    is solved against ``rhs`` on its own rank, the matrices of one rank
    together, by the same products per matrix, so each gets the
    arithmetic of a lone one bit for bit."""
    rank, s, u, vt, e = _svd(mat, True, scale)
    rhs = np.ldexp(rhs, -e)
    if vt.ndim == 2:
        return ((rhs @ u[:, :rank]) / s[:rank]) @ vt[:rank], rank, vt
    x = np.zeros(vt.shape[:-1])
    ranks = set(np.ravel(rank).tolist())
    for r in ranks:
        at = rank == r if len(ranks) > 1 else ...   # one rank: every matrix
        coef = (rhs @ u[at][..., :r]) / s[at][..., :r]
        x[at] = (coef[..., None, :] @ vt[at][..., :r, :])[..., 0, :]    # one row per matrix
    return x, rank, vt


def expected_payoff(g: GameSpec, s: StrategyProfile, player: int) -> float:
    """Expected payoff to one player: that component of ``total_payoff``."""
    _require_match(g, s)
    player = _player_index(player, g.n)
    return float(total_payoff(g, s)[player])


def total_payoff(g: GameSpec, s: StrategyProfile) -> np.ndarray:
    """Expected payoff vector, one component per player."""
    _require_match(g, s)
    return _deviations(g.payoffs, s.blocks, ())[0]


def deviation_payoffs(g: GameSpec, s: StrategyProfile, player: int) -> np.ndarray:
    """Payoff vectors when ``player`` switches to each pure strategy.

    Row j is the full payoff vector of the profile (s; player; e_j).  By
    own-block linearity these rows determine the payoff for any unilateral
    replacement of this player's strategy.
    """
    _require_match(g, s)
    player = _player_index(player, g.n)
    return _deviations(g.payoffs, s.blocks, (player,))[1][player]


def unilateral_replace(s: StrategyProfile, player: int, sigma) -> StrategyProfile:
    """The profile with one player's block replaced and all others kept."""
    player = _player_index(player, len(s.blocks))
    new = np.asarray(sigma, dtype=float)
    if new.shape != s.blocks[player].shape:
        raise ValueError(
            f"replacement block has length {new.size}, expected {s.blocks[player].size}")
    blocks = list(s.blocks)
    blocks[player] = new
    return StrategyProfile(blocks)


def is_zero_sum(g: GameSpec, tol: float = TAU_EVAL) -> bool:
    """True iff payoffs sum to zero at every pure profile, up to ``tol``
    times max|T|, read by the module docstring's one rule (and within its
    limit), so rescaling changes no decision.  A game with a non-finite
    payoff is not zero-sum.

    By multilinearity this is equivalent to the payoff components summing
    to zero at every mixed profile.
    """
    if not math.isfinite(g.scale):
        return False
    sums = sum(np.moveaxis(g._normalized_payoffs, -1, 0))    # sum(axis=-1)'s order, but faster
    return bool(np.all(np.abs(sums) <= tol * np.ldexp(g.scale, -g._exponent)))


def reduce_profile(s: StrategyProfile) -> np.ndarray:
    """Chart coordinates: drop the last coordinate of each player's block."""
    return np.concatenate([b[:-1] for b in s.blocks])


def _chart_buffer(m, stack=()) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """An unfilled flat profile (or ``stack`` of them), its per-player
    block views and the chart-to-flat index, for ``_load_chart``."""
    spans = [(sum(m[:p]), sum(m[:p + 1])) for p in range(len(m))]
    flat = np.empty((*stack, sum(m)))
    index = np.array([i for a, b in spans for i in range(a, b - 1)], dtype=np.intp)
    return flat, [flat[..., a:b] for a, b in spans], index


def _load_chart(r, flat: np.ndarray, blocks, index: np.ndarray) -> None:
    """The one rebuild rule: chart point(s) r go into ``flat`` by one
    indexed assignment, then each block, a view of ``flat``, gets its
    implied last coordinate, 1 minus the rest.  A lone profile (1-D
    ``flat``) is filled through 1-D slices, each sum the pairwise sum a
    stack's row gets, so it is the stack-of-one slice bit for bit."""
    if flat.ndim == 1:
        flat[index] = r
        for b in blocks:
            b[-1] = 1.0 - b[:-1].sum()
        return
    flat[..., index] = r
    for b in blocks:
        b[..., -1] = 1.0 - b[..., :-1].sum(axis=-1)


def _blocks_from_reduced(m, r) -> list[np.ndarray]:
    """Rebuild per-player blocks from chart coordinates, without validation.

    The implied last coordinate of each block is 1 minus the rest, so the
    result always sums to one per block but may leave [0, 1]; this is the
    polynomial extension of the strategy space used by derivative probes
    and the continuation corrector.  Stacked points give stacked blocks,
    consecutive views of one new flat profile (or stack of them).
    """
    r = np.asarray(r, dtype=float)
    flat, blocks, index = _chart_buffer(m, r.shape[:-1])
    if r.shape[-1:] != index.shape:
        raise ValueError(f"reduced point has length {r.size}, expected {index.size}")
    _load_chart(r, flat, blocks, index)
    return blocks


def _payoff_reduced(payoffs: np.ndarray, r) -> np.ndarray:
    """Total payoff of the tensor ``payoffs`` at chart coordinates or a
    stack of them (polynomial extension)."""
    return _deviations(payoffs, _blocks_from_reduced(payoffs.shape[:-1], r), ())[0]


def _snap_profile(blocks) -> StrategyProfile:
    """The profile of blocks each within ``TAU_SIMPLEX`` of its simplex
    (``StrategyProfile``'s check), clamped to [0, 1] and renormalized."""
    checked = StrategyProfile(blocks)
    clamped = [np.clip(b, 0.0, 1.0) for b in checked.blocks]
    return StrategyProfile([c / c.sum() for c in clamped])


def embed_profile(g: GameSpec, r) -> StrategyProfile:
    """Inverse of ``reduce_profile``: rebuild a valid profile from chart
    coordinates.

    The rebuilt blocks (each implied last coordinate included) are snapped
    onto their simplices by ``_snap_profile``, so the round trip with
    ``reduce_profile`` is the identity on valid profiles.
    """
    return _snap_profile(_blocks_from_reduced(g.m, r))


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto the standard probability simplex.

    Sort-based exact algorithm; idempotent, and points already on the
    simplex are returned unchanged.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("projection needs a nonempty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("projection needs finite entries")
    if arr.min() >= 0.0 and abs(arr.sum() - 1.0) <= 1e-12:
        return arr.copy()
    u = np.sort(arr)[::-1]
    excess = np.cumsum(u) - 1.0
    ks = np.arange(1, arr.size + 1)
    rho = np.nonzero(u - excess / ks > 0)[0][-1]
    theta = excess[rho] / (rho + 1.0)
    return np.maximum(arr - theta, 0.0)
