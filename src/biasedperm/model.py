"""Probability models for biased adjacent-transposition dynamics.

Three families are supported: a general pairwise matrix, class-structured
sets where the swap probability depends only on the classes of the two
elements, and access-frequency (weight) sets with p[i][j] = w_i/(w_i+w_j),
which are the class-structured sets of their runs of equal weight.
Tree-structured sets are built in :mod:`biasedperm.treerep`.  Every family
hands its upper entries to one fill, :func:`_pairwise`, which is where the
complement rule p[j][i] = 1 - p[i][j] holds.

Four input rules of the whole package are written here once:
:func:`parse_int` reads every integer of a config or a public constructor
(booleans and fractions refused, with optional bounds), :func:`parse_probability`
reads every decimal-string probability, :func:`_check_cross_class` bounds
every cross-class probability, and :func:`check_memory` raises every
refusal of work larger than physical memory, the one reader of
:func:`_physical_memory`.  :func:`_usable_cores` is the one core count, the
worker count of the TV scan's thread pool and of the hitting trials' process
pool.

Indices are 1-based everywhere in the public API and in serialized form.
All off-diagonal probabilities live strictly inside (0, 1): endpoint values
break ergodicity of every chain in this package and make bias ratios
undefined, so they are rejected at construction time.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import accumulate, groupby, islice

import numpy as np

from .errors import BudgetExceededError, ValidationError

DEFAULT_BUDGET = 50_000  # states a space may have unless a caller says otherwise


@dataclass(frozen=True)
class ProbabilitySet:
    """Full pairwise swap-probability matrix over n elements.

    ``p[i-1, j-1]`` is the probability that elements i and j end up in the
    order (i, j) when they interact.  Both triangles are stored; the
    complement relation p[j][i] = 1 - p[i][j] holds exactly because
    :func:`_pairwise`, which fills every set, derives the mirror entry as
    ``1.0 - value``.  The diagonal is unused and set to NaN.
    """

    n: int
    p: np.ndarray

    def __post_init__(self):
        self.p.setflags(write=False)

    def prob(self, i: int, j: int) -> float:
        """Probability of placing elements i and j in order (i, j)."""
        if i == j:
            raise ValidationError("probability is undefined for a pair (i, i)")
        return float(self.p[i - 1, j - 1])

    def ratio(self, i: int, j: int) -> float:
        """Bias ratio p[i][j] / p[j][i]."""
        return self.prob(i, j) / self.prob(j, i)


@dataclass(frozen=True)
class ClassPartition:
    """Partition of 1..n into k contiguous classes.

    ``boundaries`` holds the cut points c_1 < c_2 < ... < c_{k-1}; class 1
    covers 1..c_1, class 2 covers c_1+1..c_2, and so on.  Contiguity is a
    hard requirement: it is what guarantees that the induced sets are
    positively biased.
    """

    n: int
    boundaries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", parse_int(self.n, "partition n", low=1))
        b = tuple(parse_int(c, "a boundary") for c in self.boundaries)
        object.__setattr__(self, "boundaries", b)
        if any(not 1 <= c < self.n for c in b) or list(b) != sorted(set(b)):
            raise ValidationError(
                f"boundaries must be strictly increasing cut points inside 1..{self.n - 1}, got {b}"
            )

    @property
    def k(self) -> int:
        return len(self.boundaries) + 1

    @property
    def sizes(self) -> tuple[int, ...]:
        edges = (0,) + self.boundaries + (self.n,)
        return tuple(edges[i + 1] - edges[i] for i in range(len(edges) - 1))

    def class_of(self, x: int) -> int:
        """1-based class label of element x."""
        if not 1 <= x <= self.n:
            raise ValidationError(f"element {x} outside 1..{self.n}")
        return bisect_left(self.boundaries, x) + 1  # one more than the cuts below x

    def members(self, c: int) -> tuple[int, ...]:
        edges = (0,) + self.boundaries + (self.n,)
        if not 1 <= c <= self.k:
            raise ValidationError(f"class {c} outside 1..{self.k}")
        return tuple(range(edges[c - 1] + 1, edges[c] + 1))

    @classmethod
    def from_sizes(cls, sizes) -> "ClassPartition":
        sizes = tuple(parse_int(s, "a class size", low=1) for s in sizes)
        return cls(sum(sizes), tuple(accumulate(sizes[:-1])))


@dataclass(frozen=True)
class KClassParams:
    """Cut points plus the upper-triangular matrix of cross-class probabilities."""

    partition: ClassPartition
    q: dict = field(default_factory=dict)  # (a, b) with a < b -> probability in (1/2, 1)

    def __post_init__(self):
        k = self.partition.k
        wanted = {(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)}
        got = set(self.q)
        if got != wanted:
            raise ValidationError(
                f"q must supply exactly the pairs {sorted(wanted)}, got {sorted(got)}"
            )
        for pair, v in self.q.items():
            _check_cross_class(v, f"cross-class probability q{pair}")


@dataclass(frozen=True)
class WeightVector:
    """Access frequencies, nonincreasing, kept as exact rationals.

    Exactness matters: equal weights collapse elements into one class, and
    that collapse is decided by exact comparison of the supplied decimal
    strings, never by a floating tolerance.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise ValidationError("weight vector is empty")
        if any(v <= 0 for v in self.values):
            raise ValidationError("weights must be positive")
        if any(self.values[i] < self.values[i + 1] for i in range(len(self.values) - 1)):
            raise ValidationError("weights must be nonincreasing")

    @classmethod
    def from_strings(cls, items) -> "WeightVector":
        vals = []
        for s in items:
            try:
                d = Decimal(str(s))
            except InvalidOperation as exc:
                raise ValidationError(f"bad weight {s!r}: {exc}") from exc
            if not d.is_finite():
                raise ValidationError(f"weight {s!r} must be finite")
            vals.append(Fraction(d))
        return cls(tuple(vals))

    def induced_partition(self) -> ClassPartition:
        """Classes are the runs of equal weight values."""
        return ClassPartition.from_sizes(len(list(run)) for _, run in groupby(self.values))


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the three weak-monotonicity clauses.

    prop1: p[i][j] >= 1/2 for 2 <= i < j <= n.
    prop2: p[i][j+1] >= p[i][j] for 1 <= i < j <= n-1.
    prop3: p[i-1][j] >= p[i][j] for 2 <= i < j <= n.
    The set is weakly monotone iff prop1 and (prop2 or prop3).
    """

    prop1: bool
    prop2: bool
    prop3: bool

    @property
    def weakly_monotone(self) -> bool:
        return self.prop1 and (self.prop2 or self.prop3)


def _check_open_interval(value: float, what: str) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{what} = {value} is outside the open interval (0, 1)")
    return value


def _check_cross_class(value: float, what: str) -> float:
    """A cross-class probability: one of an ordered pair of classes or
    league branches, which must lie strictly in (1/2, 1)."""
    value = float(value)
    if not 0.5 < value < 1.0:
        raise ValidationError(f"{what}={value} must lie strictly in (1/2, 1)")
    return value


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the OS does not say."""
    if hasattr(os, "sysconf"):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return math.inf


def _usable_cores() -> int:
    """Cores this process may run on, the worker count of every pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_memory(need: float, what: str, half: bool = False):
    """Refuse with ``BudgetExceededError`` work whose ``need`` bytes exceed
    physical memory, or half of it; callers check before allocating."""
    memory = _physical_memory()
    if need > (memory / 2 if half else memory):
        raise BudgetExceededError(
            f"{what} needs {need / 2**30:.1f} GiB, more than "
            f"{'half ' if half else ''}the {memory / 2**30:.1f} GiB of physical memory"
        )


def _pairwise(n: int, entries) -> ProbabilitySet:
    """The one fill of a pairwise matrix, and the one place the complement
    rule holds.

    ``entries`` yields (i, j, v) with 1-based i != j; v must lie in the
    open interval (0, 1) and is stored at [i][j], with 1.0 - v at [j][i].
    A matrix whose 8 n^2 bytes exceed half of physical memory is refused
    with ``BudgetExceededError`` before anything is allocated: the fill is
    only the model, and every use of it needs room beside it.
    """
    check_memory(8 * n * n, f"the {n} x {n} probability matrix", half=True)
    p = np.full((n, n), np.nan)
    for i, j, v in entries:
        v = float(v)
        if not 0.0 < v < 1.0:
            _check_open_interval(v, f"p[{i}][{j}]")  # raises
        p[i - 1, j - 1] = v
        p[j - 1, i - 1] = 1.0 - v
    return ProbabilitySet(n=n, p=p)


def build_general(n: int, entries) -> ProbabilitySet:
    """Build a general set from one probability per unordered pair.

    ``entries`` is an iterable of (i, j, p) with 1-based i != j.  Every
    unordered pair must be supplied exactly once; the complementary entry
    is filled as 1 - p.
    """
    n = parse_int(n, "n", low=1)
    seen = set()

    def checked():
        for i, j, v in entries:
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValidationError(f"bad pair ({i}, {j}) for n={n}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"pair {key} supplied more than once")
            seen.add(key)
            yield i, j, v

    prob_set = _pairwise(n, checked())
    pairs = n * (n - 1) // 2
    if len(seen) < pairs:
        missing = ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                   if (i, j) not in seen)
        raise ValidationError(f"{pairs - len(seen)} of {pairs} pairs missing, first "
                              f"{list(islice(missing, 3))}")
    return prob_set


def build_kclass(params: KClassParams) -> ProbabilitySet:
    """Induce the pairwise matrix of a class-structured set.

    Elements in the same class interact with probability exactly 1/2;
    elements from classes a < b are put in increasing order with
    probability q[(a, b)].
    """
    part, q = params.partition, params.q
    labels = [part.class_of(x) for x in range(1, part.n + 1)]
    return _pairwise(part.n, ((i, j, 0.5 if a == b else q[(a, b)])
                              for i, a in enumerate(labels, 1)
                              for j, b in enumerate(labels[i:], i + 1)))


def build_from_weights(w: WeightVector) -> ProbabilitySet:
    """Frequency-induced set with p[i][j] = w_i / (w_i + w_j): the k-class
    set of the weight vector's runs of equal value."""
    return build_kclass(kclass_params_from_weights(w))


def kclass_params_from_weights(w: WeightVector) -> KClassParams:
    """The class parameters a weight vector collapses to (k distinct values)."""
    part = w.induced_partition()
    reps = [w.values[part.members(c)[0] - 1] for c in range(1, part.k + 1)]
    q = {}
    for a in range(1, part.k + 1):
        for b in range(a + 1, part.k + 1):
            q[(a, b)] = float(reps[a - 1] / (reps[a - 1] + reps[b - 1]))
    return KClassParams(partition=part, q=q)


def uniform_set(n: int) -> ProbabilitySet:
    """All pairs interact with probability 1/2 (single class covering 1..n)."""
    return build_kclass(KClassParams(partition=ClassPartition(n, ()), q={}))


def constant_bias_set(n: int, p: float) -> ProbabilitySet:
    """Every cross pair put in order with the same probability p > 1/2."""
    part = ClassPartition(n, tuple(range(1, n)))
    q = {(a, b): float(p) for a in range(1, n + 1) for b in range(a + 1, n + 1)}
    return build_kclass(KClassParams(partition=part, q=q))


def check_weak_monotonicity(prob_set: ProbabilitySet) -> MonotonicityReport:
    """Exhaustive scan of the three monotonicity clauses; no sampling."""
    p = prob_set.p
    n = prob_set.n
    prop1 = all(
        p[i - 1, j - 1] >= 0.5 for i in range(2, n + 1) for j in range(i + 1, n + 1)
    )
    prop2 = all(
        p[i - 1, j] >= p[i - 1, j - 1]
        for i in range(1, n) for j in range(i + 1, n)
    )
    prop3 = all(
        p[i - 2, j - 1] >= p[i - 1, j - 1]
        for i in range(2, n + 1) for j in range(i + 1, n + 1)
    )
    return MonotonicityReport(prop1=prop1, prop2=prop2, prop3=prop3)


def validate_kclass(prob_set: ProbabilitySet, partition: ClassPartition) -> np.ndarray:
    """Check that prob_set is constant on class pairs and 1/2 within classes.

    Returns the (k+1) x (k+1) table of class-pair probabilities, 1-based,
    with table[a][b] the probability of ordering an (a, b) cross pair
    increasingly (a != b) and 1/2 on the diagonal.
    """
    if prob_set.n != partition.n:
        raise ValidationError("probability set and partition disagree on n")
    k = partition.k
    table = np.full((k + 1, k + 1), np.nan)
    for a in range(1, k + 1):
        table[a, a] = 0.5
        for x in partition.members(a):
            for y in partition.members(a):
                if x < y and prob_set.p[x - 1, y - 1] != 0.5:
                    raise ValidationError(
                        f"within-class pair ({x}, {y}) has probability "
                        f"{prob_set.p[x - 1, y - 1]} != 1/2"
                    )
        for b in range(a + 1, k + 1):
            vals = {prob_set.p[x - 1, y - 1] for x in partition.members(a)
                    for y in partition.members(b)}
            if len(vals) != 1:
                raise ValidationError(
                    f"cross-class pair ({a}, {b}) probabilities are not constant: {sorted(vals)}"
                )
            v = vals.pop()
            table[a, b] = v
            table[b, a] = 1.0 - v
    return table


def random_monotone_set(n: int, rng, low: float = 0.5, high: float = 0.99) -> ProbabilitySet:
    """Seeded random monotone positively biased general set.

    Monotone here means p[i][j] <= p[i][j+1] and p[i][j] >= p[i+1][j] for
    all 1 <= i < j <= n, with every upper-triangle entry in [low, high].
    Rows are drawn top-down, columns left to right, each entry uniform on
    the interval its monotonicity constraints allow.
    """
    p = np.full((n, n), np.nan)
    entries = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lo = low
            if j - 1 > i:
                lo = max(lo, p[i - 1, j - 2])  # p[i][j] >= p[i][j-1]
            hi = high
            if i - 1 >= 1:
                hi = min(hi, p[i - 2, j - 1])  # p[i][j] <= p[i-1][j]
            v = float(rng.uniform(lo, hi))
            p[i - 1, j - 1] = v
            entries.append((i, j, v))
    return build_general(n, entries)


def parse_probability(text, what: str) -> float:
    """Parse a decimal-string probability, which must lie in (0, 1)."""
    if not isinstance(text, str):
        raise ValidationError(f"{what} must be a decimal string, got {text!r}")
    try:
        value = float(Decimal(text))
    except (InvalidOperation, ValueError) as exc:
        raise ValidationError(f"bad {what} {text!r}") from exc
    return _check_open_interval(value, f"{what} {text!r}")


def parse_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """Parse an integer of a config file or a constructor's argument.

    Booleans and non-integral numbers are refused rather than truncated,
    and so is a value below ``low`` or above ``high`` where they are given
    (``high`` only with ``low``).
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    try:
        value = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from exc
    if (low is not None and value < low) or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValidationError(f"{what} must be {span}, got {value}")
    return value


def parse_real(value, what: str) -> float:
    """Parse a real-valued config field: a decimal string or a JSON number.

    Booleans and other types are refused.  The result may be infinite or
    NaN; callers check it against their own range.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValidationError(f"{what} must be a decimal string or a number, got {value!r}")
    try:
        return float(Decimal(value)) if isinstance(value, str) else float(value)
    except (InvalidOperation, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad {what} {value!r}") from exc


def _parse_pair_key(key: str) -> tuple[int, int]:
    body = key.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        a, b = (int(s) for s in body.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad pair key {key!r}, expected \"(a,b)\"") from exc
    return a, b


def model_from_config(cfg: dict):
    """Build a model from its JSON config form.

    Returns (ProbabilitySet, ClassPartition or None, LeagueTree or None).
    The schema keeps 1-based indices and decimal-string probabilities:

      {"type": "general", "n": 3, "entries": [[1, 2, "0.6"], ...]}
      {"type": "kclass", "n": 6, "boundaries": [2, 3], "q": {"(1,2)": "0.8", ...}}
      {"type": "weights", "w": ["4", "2", "2", "1"]}
      {"type": "league", "tree": {...}}
    """
    if not isinstance(cfg, dict):
        raise ValidationError("model config must be an object")
    kind = cfg.get("type")
    if kind == "general":
        _require_keys(cfg, {"type", "n", "entries"})
        raw = cfg["entries"]
        if not isinstance(raw, (list, tuple)) or any(
                not isinstance(e, (list, tuple)) or len(e) != 3 for e in raw):
            raise ValidationError("general entries must be [i, j, \"p\"] triples")
        entries = [(parse_int(i, "an entry's i"), parse_int(j, "an entry's j"),
                    parse_probability(s, "probability")) for i, j, s in raw]
        return build_general(cfg["n"], entries), None, None
    if kind == "kclass":
        _require_keys(cfg, {"type", "n", "boundaries", "q"})
        if not (isinstance(cfg["boundaries"], (list, tuple))
                and isinstance(cfg["q"], dict)):
            raise ValidationError("kclass models need a boundaries list and a q object")
        part = ClassPartition(cfg["n"], tuple(cfg["boundaries"]))
        q = {_parse_pair_key(k): parse_probability(v, "probability")
             for k, v in cfg["q"].items()}
        return build_kclass(KClassParams(partition=part, q=q)), part, None
    if kind == "weights":
        _require_keys(cfg, {"type", "w"})
        if not isinstance(cfg["w"], (list, tuple)):
            raise ValidationError("weights models need a \"w\" list of decimal strings")
        w = WeightVector.from_strings(cfg["w"])
        return build_from_weights(w), w.induced_partition(), None
    if kind == "league":
        _require_keys(cfg, {"type", "tree"})
        from . import treerep

        tree = treerep.parse_tree(cfg["tree"])
        return treerep.induced_probabilities(tree), None, tree
    raise ValidationError(f"unknown model type {kind!r}")


def _require_keys(cfg: dict, allowed: set):
    extra = set(cfg) - allowed
    if extra:
        raise ValidationError(f"unknown model config fields: {sorted(extra)}")
    missing = allowed - set(cfg)
    if missing:
        raise ValidationError(f"missing model config fields: {sorted(missing)}")
