"""Binary-word exclusion processes as monotone lattice paths.

A word over {0, 1} with n1 ones and n0 zeros maps to a staircase walk from
(0, h) to (w, 0) with h = n1 and w = n0: ones become steps down, zeros
steps to the right.  One swap of a (1, 0) neighbor pair adds exactly one
unit square to the region under the walk; the top configuration (all
zeros, then all ones) encloses the whole h x w rectangle.

Neither orientation is normalized away: a bias callback need not be
symmetric under relabeling, so h and w are always recorded as given.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .kernels import (GeneralizedExclusionChain, _exclusion_sizes, bias_value, sample_step,
                      square_of)
from .model import DEFAULT_BUDGET, _usable_cores, parse_int
from .permcore import transpose

RIGHT = "R"
DOWN = "D"
_HIT_BLOCK = 4096  # positions and coins drawn per block of a hitting trial
_HIT_MEMO_MAX = 1 << 18  # bias values memoized per process of a run; ~100 B each, ~25 MiB full
_HIT_SPANS_PER_WORKER = 8  # contiguous trial spans per pool worker of a hitting run


@dataclass(frozen=True)
class StaircaseWalk:
    """Monotone lattice path as a step sequence over {R, D}."""

    steps: tuple[str, ...]

    def __post_init__(self):
        if any(s not in (RIGHT, DOWN) for s in self.steps):
            raise ValidationError(f"walk steps must be '{RIGHT}' or '{DOWN}'")

    @property
    def h(self) -> int:
        return sum(1 for s in self.steps if s == DOWN)

    @property
    def w(self) -> int:
        return sum(1 for s in self.steps if s == RIGHT)


@dataclass(frozen=True)
class BiasReport:
    """Minimum bias ratio over all (word, active position) pairs."""

    min_bias: float
    witness_word: tuple
    witness_position: int
    witness_square: tuple[int, int]
    exact: bool  # False when estimated from sampled trajectories


@dataclass(frozen=True)
class HittingSummary:
    n1: int
    n0: int
    trials: tuple[int, ...]
    seed: int

    @property
    def mean(self) -> float:
        return sum(self.trials) / len(self.trials) if self.trials else 0.0

    @property
    def max(self) -> int:
        return max(self.trials) if self.trials else 0

    @property
    def area(self) -> int:
        return self.n1 * self.n0

    @property
    def normalized_mean(self) -> float:
        return self.mean / self.area if self.area else 0.0


def word_to_walk(word) -> StaircaseWalk:
    """1 -> step down, 0 -> step right."""
    word = tuple(word)
    if any(x not in (0, 1) for x in word):
        raise ValidationError(f"binary word expected, got {word}")
    return StaircaseWalk(tuple(DOWN if x == 1 else RIGHT for x in word))


def walk_to_word(walk: StaircaseWalk, n1: int | None = None, n0: int | None = None) -> tuple:
    """Inverse of word_to_walk; optionally checks the declared step counts."""
    if n1 is not None and walk.h != n1:
        raise ValidationError(f"walk has {walk.h} down steps, expected {n1}")
    if n0 is not None and walk.w != n0:
        raise ValidationError(f"walk has {walk.w} right steps, expected {n0}")
    return tuple(1 if s == DOWN else 0 for s in walk.steps)


def area(word) -> int:
    """Unit squares under the walk: zeros to the left of each one."""
    total = 0
    zeros = 0
    for x in word:
        if x == 0:
            zeros += 1
        else:
            total += zeros
    return total


def bottom_word(n1: int, n0: int) -> tuple:
    return (1,) * n1 + (0,) * n0


def top_word(n1: int, n0: int) -> tuple:
    return (0,) * n0 + (1,) * n1


def all_words(n1: int, n0: int):
    """All binary words with n1 ones and n0 zeros, descending lexicographic."""
    n = n1 + n0
    for ones in combinations(range(n), n1):
        word = [0] * n
        for i in ones:
            word[i] = 1
        yield tuple(word)


def measure_boundedness(bias, n1: int, n0: int, *, budget: int = DEFAULT_BUDGET,
                        sample_steps: int | None = None, seed: int = 0) -> BiasReport:
    """Minimum of bias(word, i) / bias(swapped, i) over active (1, 0) sites.

    Exact when the word space fits the budget.  Otherwise, if
    ``sample_steps`` is given, the minimum is taken over the words visited
    by a seeded walk of :class:`GeneralizedExclusionChain` from the bottom
    word and flagged as a lower-confidence estimate; without the fallback
    the budget overrun is an error.  The walk keeps each distinct word once,
    in the order it was first visited.
    """
    n1, n0 = _exclusion_sizes(bias, n1, n0)
    if sample_steps is not None:
        sample_steps = parse_int(sample_steps, "sample_steps", low=0)
    seed = parse_int(seed, "seed", low=0)
    count = math.comb(n1 + n0, n1)
    if count <= budget:
        return _boundedness_over(all_words(n1, n0), bias, exact=True)
    if sample_steps is None:
        raise BudgetExceededError(
            f"{count} words exceed the budget of {budget} and no sampling "
            "fallback was requested"
        )
    kernel = GeneralizedExclusionChain(bias, n1, n0)
    rng = np.random.default_rng(seed)
    word = bottom_word(n1, n0)
    visited = {word: None}
    for _ in range(sample_steps):
        word = sample_step(kernel, word, rng)
        visited[word] = None
    return _boundedness_over(visited, bias, exact=False)


def _boundedness_over(words, bias, exact: bool) -> BiasReport:
    best = None
    for word in words:
        for i in range(1, len(word)):
            if word[i - 1] == 1 and word[i] == 0:
                swapped = transpose(word, i, i + 1)
                ratio = bias_value(bias, word, i) / bias_value(bias, swapped, i)
                if best is None or ratio < best[0]:
                    best = (ratio, word, i)
    if best is None:
        raise ValidationError("no active (1, 0) site exists; need n1 >= 1 and n0 >= 1")
    ratio, word, i = best
    return BiasReport(min_bias=ratio, witness_word=word, witness_position=i,
                      witness_square=square_of(word, i), exact=exact)


def _mix64(z: int) -> int:
    """64-bit finalizer used to split one root seed into per-trial seeds."""
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def trial_seed(root: int, index: int) -> int:
    """Seed of one trial: root xor index pushed through the 64-bit mix.

    Trials are therefore reproducible and independent of the order or the
    number of trials run.
    """
    return _mix64((root ^ index) & 0xFFFFFFFFFFFFFFFF)


def hitting_time_to_top(bias, n1: int, n0: int, trials: int, seed: int) -> HittingSummary:
    """Steps from the lowest word (1^n1 0^n0) until the top is first reached.

    Warns when the callback advertises a minimum bias ratio <= 1 (the walk
    is then not pushed toward the top and the experiment may be slow), but
    runs regardless.

    The trials are cut into contiguous spans, ``_HIT_SPANS_PER_WORKER`` per
    worker so that a span of long trials does not hold up the rest, and
    the spans run on a pool of one forked process per usable core; the
    steps are joined in trial order, and since trial t draws from
    ``trial_seed(seed, t)`` they are the same numbers the serial loop
    gives.  The spans run in this process instead when there is one usable
    core or one trial, when the platform cannot fork, or when the caller is
    a daemonic process, which may not have children.  The workers are
    forked, so the bias reaches them unpickled and closures work; a bias
    that raises in a worker raises the same exception here.  On Python 3.12
    and later, forking a process that runs threads warns.

    A bias callback is evaluated at most once per (word, site) pair in each
    process that runs trials: the trials of one process share a memo of its
    values (up to ``_HIT_MEMO_MAX`` entries), so the bias must be a function
    of (word, i) alone, and each value must lie strictly in (0, 1), as in
    the kernel's rows (``kernels.bias_value``).  On the pool the callback
    runs in the workers, and its side effects, such as counting calls, stay
    there.
    """
    n1, n0 = _exclusion_sizes(bias, n1, n0)
    trials = parse_int(trials, "trials", low=1)
    seed = parse_int(seed, "seed", low=0)
    known = getattr(bias, "known_min_ratio", None)
    if known is not None and known <= 1.0:
        warnings.warn(
            f"minimum bias ratio {known} <= 1; hitting times may be exponential",
            stacklevel=2,
        )
    workers = min(_usable_cores(), trials)
    count = min(trials, workers * _HIT_SPANS_PER_WORKER)
    spans = [(trials * k // count, trials * (k + 1) // count) for k in range(count)]
    job = (bias, n1, n0, seed)
    pool = _hit_pool(workers, job)
    try:
        if pool is None:
            steps = map(partial(_hit_span, (*job, {})), spans)
        else:
            steps = pool.map(_worker_span, spans)
        results = tuple(s for span in steps for s in span)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return HittingSummary(n1=n1, n0=n0, trials=results, seed=seed)


def _hit_pool(workers: int, job: tuple):
    """A pool of ``workers`` forked processes, each started on ``job``, or
    None when the trials run in this process."""
    if workers == 1:
        return None
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=job)


_worker_job = None  # in a pool worker: (bias, n1, n0, seed, memo), set once at its start


def _start_worker(bias, n1: int, n0: int, seed: int):
    global _worker_job
    _worker_job = (bias, n1, n0, seed, {})


def _worker_span(span: tuple[int, int]) -> list[int]:
    return _hit_span(_worker_job, span)


def _hit_span(job: tuple, span: tuple[int, int]) -> list[int]:
    """Steps of trials span[0] .. span[1] - 1, all sharing job's memo."""
    bias, n1, n0, seed, memo = job
    return [_one_hit(bias, n1, n0, trial_seed(seed, t), memo) for t in range(*span)]


def _one_hit(bias, n1: int, n0: int, seed: int, memo: dict) -> int:
    """Steps of one trial; callback values are read from and added to memo,
    the memo of the process that runs the trial, each checked by
    ``bias_value`` as it is first computed.

    The word is kept twice: as a list, and as an integer code with bit
    n - 1 - j holding word[j].  A swap at site i exchanges two differing
    bits, so it flips both: code ^= 3 << (n - 1 - i).  The memo key
    code * n + i encodes the pair (code, i), since 0 < i < n.
    """
    if n1 == 0 or n0 == 0:
        return 0
    n = n1 + n0
    word = list(bottom_word(n1, n0))
    code = (1 << n) - (1 << n0)
    target = n1 * n0
    current = 0
    rng = np.random.default_rng(seed)
    const_p = getattr(bias, "constant_p", None)
    steps = 0
    while True:
        positions = rng.integers(1, n, size=_HIT_BLOCK).tolist()
        coins = rng.random(_HIT_BLOCK).tolist()
        for i, coin in zip(positions, coins):
            steps += 1
            a, b = word[i - 1], word[i]
            if a == b:
                continue
            if const_p is not None:
                p = const_p if a == 1 else 1.0 - const_p
            else:
                key = code * n + i
                p = memo.get(key)
                if p is None:
                    p = bias_value(bias, tuple(word), i)
                    if len(memo) < _HIT_MEMO_MAX:
                        memo[key] = p
            if coin < p:
                word[i - 1], word[i] = b, a
                code ^= 3 << (n - 1 - i)
                current += 1 if a == 1 else -1
                if current == target:
                    return steps
