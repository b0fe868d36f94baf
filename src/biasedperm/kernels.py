"""Exact one-step transition enumeration for every chain in the toolkit.

Each chain is a :class:`ChainKernel`, and its ``transitions`` method is
the one place its row is built: a dict mapping target state to
probability, with the self-loop entry included so each row sums to exactly
one.  Enumeration is the primitive; sampling (:func:`sample_step`, and
:func:`sample_steps` for many draws from one state) is derived from it,
which keeps row-stochasticity directly testable.

A kernel's states are the orderings of the sorted label list it fixes
when built, the first state its space lists.  Every row and class word
starts from :meth:`ChainKernel.check_state`, which refuses other states by
the one state rule, :func:`biasedperm.permcore.check_ordering`.

Every chain is a transposition chain: a kernel lists its (i, j, mass)
transpositions from a state and one builder (:func:`_transposition_row`)
makes the row.  M_nn, M_pp and M_e list theirs by one adjacent-swap rule
(:func:`_adjacent_moves`): a position 1 <= i < n is chosen uniformly and,
if the items at i and i+1 differ, they are exchanged with a pair
probability, read from the pairwise matrix, the class-pair table or the
bias callback.  The class chains (M_tk, M_k1, M_pp) share
:class:`_ClassChain`, which resolves their class-pair table once, when the
kernel is built, and reads the classes of a state by position from a
class-label word (M_k1 and M_pp) or through the partition (M_tk).  M_tk's
moves (:meth:`ClassTranspositionChain.moves`) are the ones its rows and
its canonical paths read.  M_tree likewise resolves each pair's lowest
common ancestor once: its rows read a list of (pair, blocking leaf set,
probability) built with the kernel.

Holding conventions follow the chain definitions exactly; no extra 1/2
laziness is added anywhere.  M_tk and M_k1 accept their moves with
Metropolis probabilities min(1, pi(y)/pi(x)), so they keep the product
law on every k-class set; a transition mass above one is an error.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import PropertyViolationError, ValidationError
from .model import (ClassPartition, ProbabilitySet, _check_open_interval, _parse_pair_key,
                    parse_int, parse_probability, parse_real, validate_kclass)
from .permcore import check_ordering, project, sorted_labels, transpose
from . import treerep

_ROW_CACHE_MAX = 1 << 13  # rows a sampler keeps; ~7.5 KiB each at 40 positions, ~60 MiB full


# ---------------------------------------------------------------------------
# shared move mechanics


def _transposition_row(state: tuple, moves) -> dict:
    """The row of a transposition chain.

    ``moves`` lists the chain's transpositions from ``state`` as (i, j,
    mass) triples, exchanging 1-based positions i and j; no two reach the
    same state and none leaves it unchanged.  The self-loop takes the rest
    of the unit mass, and a total above one is refused.
    """
    # loops, here and in _adjacent_moves: at a row's few moves CPython 3.11
    # runs them faster than comprehensions, which build a function frame
    row = {}
    for i, j, mass in moves:
        row[transpose(state, i, j)] = mass
    total = math.fsum(row.values())
    if total > 1.0 + 1e-12:
        raise PropertyViolationError(
            f"transition masses from {state} sum to {total} > 1"
        )
    row[state] = max(0.0, 1.0 - total)
    return row


def _adjacent_moves(state: tuple, swap_prob) -> list:
    """The adjacent-swap rule: a position 1 <= i < n is chosen uniformly;
    if the items at i and i+1 differ they are exchanged with probability
    ``swap_prob(i)``."""
    n = len(state)
    base = 1.0 / max(n - 1, 1)  # no position to choose when n < 2
    moves = []
    for i in range(1, n):
        if state[i - 1] != state[i]:
            moves.append((i, i + 1, base * swap_prob(i)))
    return moves


class MtkMove:
    """One admissible transposition: positions i < j, direction, acceptance,
    and its transition mass ``prob``, 1/(3n) times the acceptance."""

    __slots__ = ("i", "j", "direction", "acceptance", "prob")

    def __init__(self, i, j, direction, acceptance, prob):
        self.i, self.j, self.direction = i, j, direction
        self.acceptance, self.prob = acceptance, prob


def _class_moves(classes: tuple, table, directions) -> list[MtkMove]:
    """The class-transposition moves of a state with these position classes.

    ``table[a, b]`` is the probability of ordering a class-a item ahead of
    a class-b item (:func:`biasedperm.model.validate_kclass`).  For each
    position i and direction:
      L: the nearest left position j holding a class >= the class at i; if
         that class is strictly greater, the swap is accepted with
         probability min(1, 1/r), r the product of the reverse R move.
      R: the nearest right position j with class >= class at i; if strictly
         greater the swap is accepted with probability min(1, r), where
         r = ratio(j, i) * prod over i < m < j of ratio(j, m) ratio(m, i)
         is pi(y)/pi(x) for the product law.
      N: the nearest left position in the same class; the swap always
         fires.
    These are Metropolis acceptances, so the product law is stationary on
    every k-class set.  Each move has mass 1/(3n) times its acceptance.
    """
    n = len(classes)
    base = 1.0 / (3 * n)

    def ratio(a: int, b: int) -> float:
        return float(table[a, b]) / float(table[b, a])

    def product(big: int, small: int, lo: int, hi: int) -> float:
        # pi(y)/pi(x) for putting the class-big item at hi ahead of the
        # class-small item at lo; an L move reads its reverse R move's r
        # through the same float operations
        acc = ratio(big, small)
        for m in range(lo + 1, hi):
            acc *= ratio(big, classes[m - 1]) * ratio(classes[m - 1], small)
        return acc

    moves: list[MtkMove] = []
    for i in range(1, n + 1):
        ci = classes[i - 1]
        if "L" in directions:
            for j in range(i - 1, 0, -1):
                if classes[j - 1] >= ci:
                    if classes[j - 1] > ci:
                        acc = min(1.0, 1.0 / product(classes[j - 1], ci, j, i))
                        moves.append(MtkMove(j, i, "L", acc, base * acc))
                    break
        if "R" in directions:
            for j in range(i + 1, n + 1):
                if classes[j - 1] >= ci:
                    if classes[j - 1] > ci:
                        acc = min(1.0, product(classes[j - 1], ci, i, j))
                        moves.append(MtkMove(i, j, "R", acc, base * acc))
                    break
        if "N" in directions:
            for j in range(i - 1, 0, -1):
                if classes[j - 1] == ci:
                    moves.append(MtkMove(j, i, "N", 1.0, base))
                    break
    return moves


# ---------------------------------------------------------------------------
# bias callbacks for the exclusion chain


def constant_bias(p: float):
    """State-independent bias: swap toward the top with probability p.

    A (1, 0) pattern swaps to (0, 1) with probability p and the reverse
    swap happens with probability 1 - p, so every square has bias ratio
    p / (1 - p).
    """
    p = _check_open_interval(p, "constant bias p")

    def bias(word, i):
        return p if word[i - 1] == 1 else 1.0 - p

    bias.known_min_ratio = p / (1.0 - p)
    bias.constant_p = p
    return bias


def bias_value(bias, word, i: int) -> float:
    """``bias(word, i)`` as a float, refused unless it lies strictly in (0, 1)."""
    p = float(bias(word, i))
    if not 0.0 < p < 1.0:
        raise ValidationError(
            f"bias callback returned {p} at position {i} of {word}; "
            "swap probabilities must lie strictly in (0, 1)"
        )
    return p


def square_of(word, i: int) -> tuple[int, int]:
    """Unit square (column, row), 1-based, added or removed by a swap at i.

    With 1 -> down and 0 -> right, the square is determined by the prefix
    before position i: column = zeros before + 1, row = ones in the whole
    word minus ones before.
    """
    zeros_before = sum(1 for x in word[: i - 1] if x == 0)
    ones_before = (i - 1) - zeros_before
    h = sum(word)
    return zeros_before + 1, h - ones_before


def square_table_bias(table: dict):
    """Per-square bias from a table {"h": .., "w": .., "bias": {"(x,y)": "1.2"}}.

    Each square carries a bias ratio lambda > 0; adding the square happens
    with probability lambda/(1+lambda) and removing it with 1/(1+lambda).
    """
    try:
        h, w = parse_int(table["h"], "h", low=1), parse_int(table["w"], "w", low=1)
        raw = table["bias"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad square-bias table: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"square-bias table: \"bias\" must be an object, got {raw!r}")
    lam: dict[tuple[int, int], float] = {}
    for key, val in raw.items():
        x, y = _parse_pair_key(key)
        v = parse_real(val, f"square ({x},{y}) bias")
        if not (math.isfinite(v) and v > 0):
            raise ValidationError(f"square ({x},{y}) bias {v} must be finite and positive")
        lam[(x, y)] = v
    wanted = {(x, y) for x in range(1, w + 1) for y in range(1, h + 1)}
    if set(lam) != wanted:
        raise ValidationError(
            f"square-bias table must cover every square of the {h}x{w} region"
        )

    def bias(word, i):
        sq = square_of(word, i)
        v = lam[sq]
        return v / (1.0 + v) if word[i - 1] == 1 else 1.0 / (1.0 + v)

    bias.known_min_ratio = min(lam.values())
    bias.region = (h, w)
    return bias


def _exclusion_sizes(bias, n1, n0) -> tuple[int, int]:
    """(n1, n0) of words with n1 ones and n0 zeros under ``bias``: integers
    >= 0, refused where a square-bias table lacks the rows 1..n1 and columns
    1..n0 that the words' swaps reach (:func:`square_of`)."""
    n1, n0 = parse_int(n1, "n1", low=0), parse_int(n0, "n0", low=0)
    h, w = getattr(bias, "region", (n1, n0))
    if h < n1 or w < n0:
        raise ValidationError(f"square-bias table region {h}x{w} does not cover the "
                              f"{n1}x{n0} region of words with n1={n1}, n0={n0}")
    return n1, n0


def word_hash_bias(word, i):
    """Deterministic test bias depending on the whole word and position.

    Hashes (word, i) into (0.55, 0.95).  Useful for exercising
    state-dependent behavior reproducibly; makes no boundedness promise.
    """
    payload = bytes(word) + i.to_bytes(4, "little")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    u = int.from_bytes(digest, "little") / 2.0**64
    return 0.55 + 0.4 * u


def make_bias(spec: str):
    """Bias registry: "constant:<p>", "square-dependent:<table-file>", "word-hash"."""
    if not isinstance(spec, str):
        raise ValidationError(f"bias must be a spec string, got {spec!r}")
    if spec == "word-hash":
        return word_hash_bias
    if spec.startswith("constant:"):
        return constant_bias(parse_probability(spec.split(":", 1)[1], "constant bias"))
    if spec.startswith("square-dependent:"):
        path = Path(spec.split(":", 1)[1])
        try:
            table = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read bias table {path}: {exc}") from exc
        return square_table_bias(table)
    raise ValidationError(f"unknown bias spec {spec!r}")


# ---------------------------------------------------------------------------
# kernel objects and the shared sampler


class ChainKernel:
    """A named transition rule with exact row enumeration and cached sampling."""

    name = "?"
    space_kind = "permutations"

    def _set_labels(self, sizes, first: int = 1, what: str | None = None):
        """Fix the kernel's states as the orderings of ``labels``, ``sizes[c]``
        copies of ``first + c``; ``what`` names them, by default as permutations."""
        self.labels = sorted_labels(sizes, first)
        self._what = what or f"a permutation of 1..{len(self.labels)}"

    def check_state(self, state) -> tuple:
        """``state`` as a tuple, refused unless it orders the kernel's labels."""
        return check_ordering(state, self.labels, self._what)

    def transitions(self, state) -> dict:
        raise NotImplementedError

    def _row(self, state):
        """The sampler's (targets, cumulative masses) of ``state``, kept for
        the first ``_ROW_CACHE_MAX`` states asked for and rebuilt past them."""
        cache = getattr(self, "_row_cache", None)
        if cache is None:
            cache = self._row_cache = {}
        hit = cache.get(state)
        if hit is None:
            row = self.transitions(state)
            cum = list(accumulate(row.values()))
            cum[-1] = max(cum[-1], 1.0)
            hit = (tuple(row), cum)
            if len(cache) < _ROW_CACHE_MAX:
                cache[state] = hit
        return hit


class AdjacentTranspositionChain(ChainKernel):
    """M_nn: the adjacent-swap rule, swapping the elements at i and i+1 with
    the probability of placing the element at i+1 ahead of the one at i."""

    name = "mnn"

    def __init__(self, prob_set: ProbabilitySet):
        self.prob_set = prob_set
        self._set_labels([1] * prob_set.n)

    def transitions(self, state):
        sigma = self.check_state(state)
        prob = self.prob_set.prob
        return _transposition_row(
            sigma, _adjacent_moves(sigma, lambda i: prob(sigma[i], sigma[i - 1])))


class _ClassChain(ChainKernel):
    """A chain over class labels: the model, its partition and the
    class-pair table are resolved once, when the kernel is built."""

    def __init__(self, prob_set: ProbabilitySet, partition: ClassPartition):
        self.prob_set = prob_set
        self.partition = partition
        self.table = validate_kclass(prob_set, partition)
        if self.space_kind == "words":
            self._set_labels(partition.sizes, what=f"a word over 1..{partition.k} "
                                                   f"with label counts {partition.sizes}")
        else:
            self._set_labels([1] * partition.n)

    def classes(self, state) -> tuple:
        """Class label at each position of a state of the kernel's space
        (:meth:`check_state`).

        A word over 1..k carries its labels; the elements of a permutation
        are mapped through the partition.
        """
        state = self.check_state(state)
        return state if self.space_kind == "words" else project(state, self.partition)


class ClassTranspositionChain(_ClassChain):
    """M_tk: every (position, direction L/R/N) pair carries mass 1/(3n) times
    its move's acceptance (:meth:`moves`); unused mass is the self-loop."""

    name = "mtk"

    def __init__(self, prob_set: ProbabilitySet, partition: ClassPartition):
        super().__init__(prob_set, partition)
        self._moves_by_word: dict[tuple, tuple[MtkMove, ...]] = {}

    def moves(self, state) -> tuple[MtkMove, ...]:
        """The L, R and N moves available from a permutation (:func:`_class_moves`).

        They depend on the state's class word alone, so each word's moves
        are built once per kernel and shared by its permutations.
        """
        word = self.classes(state)
        hit = self._moves_by_word.get(word)
        if hit is None:
            hit = self._moves_by_word[word] = tuple(
                _class_moves(word, self.table, ("L", "R", "N")))
        return hit

    def transitions(self, state):
        state = tuple(state)
        return _transposition_row(state, [(mv.i, mv.j, mv.prob) for mv in self.moves(state)])


class SameClassChain(ChainKernel):
    """M_i: a class-``cls`` position is chosen uniformly and its element is
    exchanged with its nearest class-mate to the left, if one exists."""

    def __init__(self, prob_set: ProbabilitySet, partition: ClassPartition, cls: int):
        self.prob_set = prob_set
        self.partition = partition
        self.cls = parse_int(cls, "the mi class", low=1, high=partition.k)
        self.name = f"mi:{self.cls}"
        self._set_labels([1] * partition.n)

    def transitions(self, state):
        sigma = self.check_state(state)
        positions = [i for i, c in enumerate(project(sigma, self.partition), 1)
                     if c == self.cls]
        base = 1.0 / len(positions)
        # the nearest class-mate left of each class position is the one before it
        return _transposition_row(sigma, [(g, f, base)
                                          for g, f in zip(positions, positions[1:])])


class CrossClassChain(_ClassChain):
    """M_k1 on class-label words: M_tk's L and R moves, each with mass 1/(3n)
    (not 1/(2n)), as the cross-class part of M_tk."""

    name = "mk1"
    space_kind = "words"

    def transitions(self, state):
        state = tuple(state)
        moves = _class_moves(self.classes(state), self.table, ("L", "R"))
        return _transposition_row(state, [(mv.i, mv.j, mv.prob) for mv in moves])


class ParticleProcessChain(_ClassChain):
    """M_pp: the adjacent-swap rule on class-label words, with the
    probabilities of the class-pair table."""

    name = "mpp"
    space_kind = "words"

    def transitions(self, state):
        word = self.classes(state)
        table = self.table
        return _transposition_row(
            word, _adjacent_moves(word, lambda i: float(table[word[i], word[i - 1]])))


class TreeSwapChain(ChainKernel):
    """M_tree: a pair {a, b} is chosen uniformly among the C(n, 2) pairs; if no
    element between them descends from their lowest common ancestor, a and b
    are placed in order with probability p[a][b] and out of order otherwise.
    Each pair so reaches one other state, its two positions swapped; the
    mass of keeping its order folds into the self-loop."""

    name = "mtree"

    def __init__(self, tree: treerep.LeagueTree):
        self.tree = tree
        self.prob_set = treerep.induced_probabilities(tree)
        # (a, b, leaves that block the pair, p[a][b]) for every pair a < b
        self.pairs = [(a, b, tree.lca(a, b)[0].leaves, self.prob_set.prob(a, b))
                      for a in range(1, tree.n + 1) for b in range(a + 1, tree.n + 1)]
        self._set_labels([1] * tree.n)

    def transitions(self, state):
        n = self.tree.n
        sigma = self.check_state(state)
        pos = {x: i for i, x in enumerate(sigma, 1)}
        base = 1.0 / (n * (n - 1) / 2)
        moves = []
        for a, b, blockers, p_in in self.pairs:
            i, j = pos[a], pos[b]
            if blockers.isdisjoint(sigma[min(i, j):max(i, j) - 1]):
                moves.append((i, j, base * (1.0 - p_in if i < j else p_in)))
        return _transposition_row(sigma, moves)


class GeneralizedExclusionChain(ChainKernel):
    """M_e on words with n1 ones and n0 zeros: the adjacent-swap rule with
    probability bias(word, i), which may depend on the entire word."""

    name = "me"
    space_kind = "binary"

    def __init__(self, bias, n1: int, n0: int):
        self.bias = bias
        self.n1, self.n0 = _exclusion_sizes(bias, n1, n0)
        self._set_labels((self.n0, self.n1), 0,
                         f"a word with {self.n1} ones and {self.n0} zeros")

    def transitions(self, state):
        word = self.check_state(state)
        return _transposition_row(word, _adjacent_moves(
            word, lambda i: bias_value(self.bias, word, i)))


def make_kernel(name: str, *, prob_set=None, partition=None, tree=None,
                bias=None, n1=None, n0=None) -> ChainKernel:
    """Kernel registry keyed by the config-file chain names."""
    if not isinstance(name, str):
        raise ValidationError(f"chain must be a name string, got {name!r}")
    if name == "mnn":
        return AdjacentTranspositionChain(_need(prob_set, "mnn needs a model"))
    if name == "mtk":
        return ClassTranspositionChain(_need(prob_set, "mtk needs a model"),
                                       _need(partition, "mtk needs a class partition"))
    if name.startswith("mi:"):
        return SameClassChain(_need(prob_set, "mi needs a model"),
                              _need(partition, "mi needs a class partition"),
                              name.split(":", 1)[1])
    if name == "mk1":
        return CrossClassChain(_need(prob_set, "mk1 needs a model"),
                               _need(partition, "mk1 needs a class partition"))
    if name == "mpp":
        return ParticleProcessChain(_need(prob_set, "mpp needs a model"),
                                    _need(partition, "mpp needs a class partition"))
    if name == "mtree":
        return TreeSwapChain(_need(tree, "mtree needs a league tree"))
    if name == "me":
        if bias is None or n1 is None or n0 is None:
            raise ValidationError("me needs bias, n1 and n0")
        return GeneralizedExclusionChain(bias, n1, n0)
    raise ValidationError(f"unknown chain {name!r}")


def _need(value, message):
    if value is None:
        raise ValidationError(message)
    return value


def sample_step(kernel: ChainKernel, state, rng):
    """Draw one step from the kernel's enumerated distribution.

    The generator is advanced in place; the same seed always yields the
    same trajectory.  A state whose row is cached is read straight from the
    kernel's row cache; any other goes through ``_row``.
    """
    try:
        targets, cum = kernel._row_cache[state]
    except (AttributeError, KeyError):
        targets, cum = kernel._row(state)
    u = rng.random()
    return targets[bisect_right(cum, u)]


def sample_steps(kernel: ChainKernel, state, rng, size: int):
    """Draw ``size`` steps from one state at once.

    Returns the row's targets and, per draw, the index of the target
    drawn: the same draws, from the same stream, as ``size`` calls of
    :func:`sample_step`, since ``searchsorted(..., side="right")`` is
    ``bisect_right`` on the same doubles.
    """
    targets, cum = kernel._row(state)
    return targets, np.searchsorted(cum, rng.random(size), side="right")
