"""Permutations, class projections, and stationary weights.

A permutation is a plain tuple of the n distinct integers 1..n; position p
(1-based) holds element sigma[p-1].  Weights are kept in log space
throughout: the unnormalized stationary weight is a product of up to
C(n, 2) probabilities and underflows in linear space near n = 60.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .model import ClassPartition, ProbabilitySet


def validate_permutation(sigma, n: int | None = None) -> tuple:
    sigma = tuple(int(x) for x in sigma)
    if n is None:
        n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValidationError(f"{sigma} is not a permutation of 1..{n}")
    return sigma


def log_weight(sigma, prob_set: ProbabilitySet) -> float:
    """Natural log of the unnormalized stationary weight of sigma.

    The weight is the product over position pairs i < j of the probability
    of the ordered pair (sigma(i), sigma(j)).
    """
    idx = np.asarray(sigma, dtype=int) - 1
    sub = prob_set.p[np.ix_(idx, idx)]
    return float(np.log(sub[_upper_pairs(len(idx))]).sum())


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple:
    """Index arrays of the strict upper triangle of an n x n array, read-only."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def weight_ratio_transposition(sigma, i: int, j: int, prob_set: ProbabilitySet) -> float:
    """Exact weight ratio pi(sigma)/pi(tau) where tau swaps positions i < j.

    Uses the closed form: only the pairs involving the two swapped
    positions change, so the ratio is
    (p[a][b]/p[b][a]) * prod over positions m strictly between i and j of
    (p[a][c] p[c][b]) / (p[b][c] p[c][a]) with a = sigma(i), b = sigma(j),
    c = sigma(m).
    """
    if not i < j:
        raise ValidationError(f"need positions i < j, got ({i}, {j})")
    a, b = sigma[i - 1], sigma[j - 1]
    ratio = prob_set.prob(a, b) / prob_set.prob(b, a)
    for m in range(i + 1, j):
        c = sigma[m - 1]
        ratio *= (prob_set.prob(a, c) * prob_set.prob(c, b)) / (
            prob_set.prob(b, c) * prob_set.prob(c, a)
        )
    return ratio


def transpose(sigma, i: int, j: int) -> tuple:
    """The permutation with positions i and j (1-based) exchanged."""
    out = list(sigma)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def project(sigma, partition: ClassPartition) -> tuple:
    """Class-label word of sigma: position p carries the class of sigma(p)."""
    return tuple(partition.class_of(x) for x in sigma)


def word_multiplicities(word, k: int | None = None) -> tuple[int, ...]:
    if k is None:
        k = max(word)
    counts = [0] * k
    for label in word:
        if not 1 <= label <= k:
            raise ValidationError(f"label {label} outside 1..{k}")
        counts[label - 1] += 1
    return tuple(counts)


def word_log_weight(word, class_table: np.ndarray) -> float:
    """Log weight of a class-label word under a class-pair probability table.

    ``class_table`` is the 1-based (k+1)x(k+1) table from
    :func:`biasedperm.model.validate_kclass`.  Constant factors from
    within-class pairs are included; they cancel under normalization.
    """
    total = 0.0
    n = len(word)
    for i in range(n):
        for j in range(i + 1, n):
            total += math.log(class_table[word[i], word[j]])
    return total


def format_permutation(sigma) -> str:
    """Whitespace-separated 1-based elements."""
    return " ".join(str(x) for x in sigma)


def parse_permutation(text: str) -> tuple:
    return validate_permutation(int(tok) for tok in text.split())


def format_word(word, k: int | None = None) -> str:
    """Digit string when k <= 9, comma-separated labels otherwise."""
    if k is None:
        k = max(word) if word else 1
    if k <= 9:
        return "".join(str(x) for x in word)
    return ",".join(str(x) for x in word)


def parse_word(text: str) -> tuple:
    text = text.strip()
    if "," in text:
        return tuple(int(tok) for tok in text.split(","))
    return tuple(int(ch) for ch in text)
