"""State labels, permutations, class projections, and stationary weights.

Every state space is the orderings of one sorted label list
(:func:`sorted_labels`): 1..n, c copies of class label c, or n0 zeros then
n1 ones; the one state rule, :func:`check_ordering`, accepts exactly those.
A permutation is a plain tuple of the n distinct integers 1..n; position p
(1-based) holds element sigma[p-1].  Weights are kept in log space
throughout: the unnormalized stationary weight is a product of up to
C(n, 2) probabilities and underflows in linear space near n = 60.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .model import ClassPartition, ProbabilitySet


def sorted_labels(sizes, first: int = 1) -> list:
    """The sorted label list of a state space: ``sizes[c]`` copies of the
    label ``first + c``, for each c in turn."""
    return [label for label, count in enumerate(sizes, first) for _ in range(count)]


def check_ordering(state, labels: list, what: str) -> tuple:
    """``state`` as a tuple of ints, refused with "<state> is not <what>"
    unless it sorts to ``labels``, a :func:`sorted_labels` list.  An entry
    equal to a label, such as 1.0 or True, reads as the int, so the rows
    index their tables with ints."""
    state = tuple(state)
    try:
        if sorted(state) == labels:
            return tuple(map(int, state))
    except TypeError:  # entries that do not compare, such as a list beside an int
        pass
    raise ValidationError(f"{state} is not {what}")


def log_weight(sigma, prob_set: ProbabilitySet) -> float:
    """Natural log of the unnormalized stationary weight of sigma.

    The weight is the product over position pairs i < j of the probability
    of the ordered pair (sigma(i), sigma(j)).
    """
    return float(log_weights([sigma], prob_set)[0])


def log_weights(states, prob_set: ProbabilitySet) -> np.ndarray:
    """Log weights of a list of permutations of one length, as one array.

    The (states x pairs) gather is made C-ordered, so each state's pairs are
    summed as one row, in the order a lone state's are: in its own layout
    a state's value would depend on the others listed with it."""
    idx = np.array(states, dtype=int) - 1
    rows, cols = np.triu_indices(idx.shape[1], k=1)
    gathered = np.ascontiguousarray(prob_set.p[idx[:, rows], idx[:, cols]])
    return np.log(gathered).sum(axis=1)


def transpose(sigma, i: int, j: int) -> tuple:
    """The permutation with positions i and j (1-based) exchanged."""
    out = list(sigma)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def project(sigma, partition: ClassPartition) -> tuple:
    """Class-label word of sigma: position p carries the class of sigma(p)."""
    return tuple(partition.class_of(x) for x in sigma)


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


def format_word(word, k: int | None = None) -> str:
    """Digit string when k <= 9, comma-separated labels otherwise."""
    if k is None:
        k = max(word) if word else 1
    if k <= 9:
        return "".join(str(x) for x in word)
    return ",".join(str(x) for x in word)

