"""Exact state-space analysis and the canonical-path comparison machinery.

Everything here works on explicitly enumerated state spaces with
row-stochastic matrices built once in CSR form (``build_csr``).  The
irreducibility check, the stationary solve, the detailed-balance scan, the
spectral gap, the TV scan and the congestion constant take the CSR matrix
as it is and accept a dense array by converting it with ``sp.csr_matrix``;
``build_matrix`` is the dense form, for callers that slice dense blocks
(``verify_decomposition``).  Besides the laws of the worst-start TV scan,
the only n x n array this allocates is the linear system of
``stationary_exact`` (and, up to ``dense_cutoff`` states, the symmetrized
matrix of ``spectral_gap``).
Eigenvalues are always computed on the symmetrized reversible form
D^(1/2) P D^(-1/2); reversibility is asserted first via the
detailed-balance scan, which keeps spectra real and matches the
reversible-chain setting of the gap and comparison bounds.
"""

from __future__ import annotations

import math
import os
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from itertools import permutations as _itperms

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from . import permcore
from .errors import BudgetExceededError, PropertyViolationError, ValidationError
from .exclusion import all_words, area, bottom_word, top_word
from .kernels import ChainKernel, GeneralizedExclusionChain, mtk_moves
from .model import ClassPartition, ProbabilitySet, uniform_set, validate_kclass

DEFAULT_BUDGET = 50_000
_TV_BLOCK = 128  # starts per column block of the TV scan; 64..256 time alike


# ---------------------------------------------------------------------------
# state spaces and matrices


@dataclass(frozen=True)
class StateSpace:
    """Canonically ordered list of states with both index maps."""

    kind: str  # "permutations" | "words" | "binary"
    states: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "index", {s: i for i, s in enumerate(self.states)})
        if len(self.index) != len(self.states):
            raise ValidationError("duplicate states in space")

    def __len__(self):
        return len(self.states)


def _multiset_words(sizes):
    """Words over 1..k with the given label counts, ascending lexicographic."""
    k = len(sizes)
    counts = list(sizes)
    word = []
    out = []

    def rec(remaining):
        if remaining == 0:
            out.append(tuple(word))
            return
        for label in range(1, k + 1):
            if counts[label - 1] > 0:
                counts[label - 1] -= 1
                word.append(label)
                rec(remaining - 1)
                word.pop()
                counts[label - 1] += 1

    rec(sum(sizes))
    return out


def enumerate_states(kind: str, *, n: int | None = None, multiplicities=None,
                     n1: int | None = None, n0: int | None = None,
                     budget: int = DEFAULT_BUDGET) -> StateSpace:
    """Enumerate a state space in deterministic (lexicographic) order.

    kind "permutations" needs n; "words" needs multiplicities (the class
    sizes); "binary" needs n1 and n0.  Spaces larger than the budget are
    refused up front.
    """
    if kind == "permutations":
        if n is None:
            raise ValidationError("permutations need n")
        count = math.factorial(n)
        _check_budget(count, budget)
        states = tuple(_itperms(range(1, n + 1)))
        return StateSpace(kind=kind, states=states, meta={"n": n})
    if kind == "words":
        if not multiplicities:
            raise ValidationError("words need multiplicities")
        sizes = tuple(int(c) for c in multiplicities)
        if any(c < 1 for c in sizes):
            raise ValidationError("multiplicities must be positive")
        count = math.factorial(sum(sizes))
        for c in sizes:
            count //= math.factorial(c)
        _check_budget(count, budget)
        return StateSpace(kind=kind, states=tuple(_multiset_words(sizes)),
                          meta={"multiplicities": sizes})
    if kind == "binary":
        if n1 is None or n0 is None:
            raise ValidationError("binary words need n1 and n0")
        _check_budget(math.comb(n1 + n0, n1), budget)
        states = tuple(sorted(all_words(n1, n0)))
        return StateSpace(kind=kind, states=states, meta={"n1": n1, "n0": n0})
    raise ValidationError(f"unknown space kind {kind!r}")


def _check_budget(count: int, budget: int):
    if count > budget:
        raise BudgetExceededError(f"{count} states exceed the budget of {budget}")


def space_for_kernel(kernel: ChainKernel, budget: int = DEFAULT_BUDGET) -> StateSpace:
    """The natural state space of a kernel built from its parameters."""
    if kernel.space_kind == "binary":
        return enumerate_states("binary", n1=kernel.n1, n0=kernel.n0, budget=budget)
    if kernel.space_kind == "words":
        return enumerate_states("words", multiplicities=kernel.partition.sizes,
                                budget=budget)
    return enumerate_states("permutations", n=kernel.prob_set.n, budget=budget)


def build_csr(kernel: ChainKernel, space: StateSpace) -> sp.csr_matrix:
    """Sparse (CSR) row-stochastic matrix of a kernel over an enumerated space.

    Row i holds the kernel's transitions out of state i in the order the
    kernel lists them; every (row, column) pair appears once.
    """
    n = len(space)
    indptr = array("q", [0])
    indices = array("q")
    data = array("d")
    for state in space.states:
        for target, prob in kernel.transitions(state).items():
            j = space.index.get(target)
            if j is None:
                raise ValidationError(
                    f"transition {state} -> {target} leaves the enumerated space; "
                    "kernel and space do not match"
                )
            indices.append(j)
            data.append(prob)
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)),
                         shape=(n, n))


def build_matrix(kernel: ChainKernel, space: StateSpace) -> np.ndarray:
    """Dense row-stochastic matrix of a kernel over an enumerated space."""
    return build_csr(kernel, space).toarray()


def is_irreducible(matrix: sp.spmatrix | np.ndarray) -> bool:
    """Strong connectivity of the positive-support graph.

    Stored entries that are not positive, such as the explicit 0.0
    self-loops the kernels list, are not edges.
    """
    support = sp.csr_matrix(matrix) > 0
    # connected_components does not return on a CSR with duplicate entries
    support.sum_duplicates()
    count, _ = connected_components(support, directed=True, connection="strong")
    return count == 1


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the OS does not say."""
    if hasattr(os, "sysconf"):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return math.inf


# ---------------------------------------------------------------------------
# stationary distributions and detailed balance


def stationary_exact(matrix: sp.spmatrix | np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by a direct linear solve.

    Requires an irreducible matrix; a singular or badly solved system is
    reported as such (it signals reducibility or a kernel bug).  The solve
    is dense LU: the system and LAPACK's copy of it take 16 n^2 bytes, and a
    size whose two copies exceed physical memory is refused with
    ``BudgetExceededError`` before anything is allocated.
    """
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    if n == 1:
        return np.ones(1)
    need = 2 * 8 * n * n  # float64 system plus LAPACK's copy
    memory = _physical_memory()
    if need > memory:
        raise BudgetExceededError(
            f"the dense stationary solve over {n} states needs {need / 2**30:.1f} GiB, "
            f"more than the {memory / 2**30:.1f} GiB of physical memory"
        )
    if not is_irreducible(matrix):
        raise ValidationError("matrix is not irreducible")
    # P^T - I with exact entries (m_ji off the diagonal, m_ii - 1.0 on it),
    # so the LU sees the same system from CSR and from dense input
    a = matrix.T.tocsr().toarray()
    a[np.diag_indices(n)] -= 1.0
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise PropertyViolationError(f"stationary solve failed: {exc}") from exc
    residual = float(np.abs(matrix.T @ pi - pi).max())
    if residual > 1e-9 or pi.min() < -1e-12:
        raise PropertyViolationError(
            f"stationary solve did not converge (residual {residual}, min {pi.min()})"
        )
    # probabilities smaller than the solver's noise floor come out as tiny
    # negatives; they are indistinguishable from 0 at working precision
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def stationary_formula(space: StateSpace, prob_set: ProbabilitySet,
                       partition: ClassPartition | None = None) -> np.ndarray:
    """Normalized product-of-probabilities weights over the space.

    Permutation spaces use the pairwise matrix directly; word spaces use
    the class-pair table (which requires the partition).  Log weights are
    normalized with the max subtracted, so underflow is not a concern.
    """
    if space.kind == "permutations":
        logs = np.array([permcore.log_weight(s, prob_set) for s in space.states])
    elif space.kind == "words":
        if partition is None:
            raise ValidationError("word spaces need the class partition")
        table = validate_kclass(prob_set, partition)
        logs = np.array([permcore.word_log_weight(w, table) for w in space.states])
    else:
        raise ValidationError(
            f"no closed-form stationary weights for space kind {space.kind!r}"
        )
    logs -= logs.max()
    weights = np.exp(logs)
    return weights / weights.sum()


@dataclass(frozen=True)
class BalanceReport:
    max_violation: float
    row: int
    col: int


def check_detailed_balance(matrix: sp.spmatrix | np.ndarray,
                           pi: np.ndarray) -> BalanceReport:
    """Largest |pi(x)P(x,y) - pi(y)P(y,x)| over all pairs, with its witness.

    Only pairs where P(x,y) or P(y,x) is stored can violate the balance.
    The witness is the first maximal pair in row-major order, and (0, 0)
    when every pair balances exactly.
    """
    matrix = sp.csr_matrix(matrix)
    flow = sp.csr_matrix(
        (np.repeat(pi, np.diff(matrix.indptr)) * matrix.data, matrix.indices,
         matrix.indptr), shape=matrix.shape)
    diff = abs(flow - flow.T).tocoo()
    worst = float(diff.data.max()) if diff.nnz else 0.0
    if worst == 0.0:
        return BalanceReport(max_violation=worst, row=0, col=0)
    hits = np.flatnonzero(diff.data == worst)
    first = hits[np.lexsort((diff.col[hits], diff.row[hits]))[0]]
    return BalanceReport(max_violation=worst, row=int(diff.row[first]),
                         col=int(diff.col[first]))


# ---------------------------------------------------------------------------
# spectra, total variation, mixing


def spectral_gap(matrix: sp.spmatrix | np.ndarray, pi: np.ndarray | None = None,
                 *, balance_tol: float = 1e-8, dense_cutoff: int = 2000) -> float:
    """1 minus the second-largest eigenvalue modulus of a reversible matrix.

    Parameters
    ----------
    matrix : row-stochastic square matrix, CSR or dense
    pi : stationary distribution; computed exactly when omitted
    balance_tol : reversibility is asserted first at this tolerance
    dense_cutoff : above this size the top and bottom of the spectrum are
        obtained with sparse Lanczos iterations instead of a dense solve

    The spectrum is taken from the symmetrized form D^(1/2) P D^(-1/2).
    A 1-state chain has gap 1 by convention, which keeps decomposition
    inequalities evaluable on degenerate partitions.
    """
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    if n == 1:
        return 1.0
    if pi is None:
        pi = stationary_exact(matrix)
    if pi.min() <= 0:
        raise PropertyViolationError(
            "a stationary mass is at or below the solver's resolution; the "
            "symmetrized form is not computable for this matrix"
        )
    report = check_detailed_balance(matrix, pi)
    if report.max_violation > balance_tol:
        raise PropertyViolationError(
            f"matrix is not reversible: detailed-balance violation "
            f"{report.max_violation} at edge {(report.row, report.col)}"
        )
    root = np.sqrt(pi)
    if n <= dense_cutoff:
        sym = matrix.toarray() * (root[:, None] / root[None, :])
        sym = 0.5 * (sym + sym.T)
        vals = np.linalg.eigvalsh(sym)
        second = max(abs(vals[-2]), abs(vals[0]))
    else:
        scaled = sp.diags(root) @ matrix @ sp.diags(1.0 / root)
        sym = 0.5 * (scaled + scaled.T)
        top = spla.eigsh(sym, k=2, which="LA", return_eigenvectors=False)
        bottom = spla.eigsh(sym, k=1, which="SA", return_eigenvectors=False)
        second = max(abs(float(np.sort(top)[0])), abs(float(bottom[0])))
    return 1.0 - float(second)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tv_iter(matrix: np.ndarray, pi: np.ndarray):
    """Yield (t, worst-start TV distance) for t = 0, 1, 2, ...

    Every start is evolved: the laws are held as C-contiguous n x b blocks
    whose column c is the law of the chain started at state s + c, and each
    step applies P^T (CSR, sorted indices) to every block, spread over a
    thread pool when there is more than one block and more than one usable
    core.  The product sums each entry over the source states in ascending
    order and the axis-0 reduction adds the states in index order, the
    summation order of the whole-matrix propagation P^t @ csr(P); the tests
    hold the curve bit-identical to it.  Close the generator to release the
    pool.
    """
    n = matrix.shape[0]
    forward = sp.csr_matrix(matrix.T)
    forward.sort_indices()
    worst = 0.0
    blocks = []
    # t = 0 reduces rows of the identity along their contiguous axis, which
    # sums in the same (pairwise) order as the full n x n identity did
    for s in range(0, n, _TV_BLOCK):
        width = min(_TV_BLOCK, n - s)
        rows = np.zeros((width, n))
        rows[np.arange(width), np.arange(s, s + width)] = 1.0
        worst = max(worst, float(np.abs(rows - pi).sum(axis=1).max()))
        blocks.append(np.ascontiguousarray(rows.T))
    yield 0, 0.5 * worst

    column = pi[:, None]

    def advance(k):
        blocks[k] = forward @ blocks[k]
        return float(np.abs(blocks[k] - column).sum(axis=0).max())

    order = range(len(blocks))
    workers = min(len(blocks), _usable_cores())
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        t = 0
        while True:
            t += 1
            values = pool.map(advance, order) if pool else map(advance, order)
            yield t, 0.5 * max(values)
    finally:
        if pool is not None:
            pool.shutdown()


def tv_curve(matrix: np.ndarray, pi: np.ndarray, tmax: int) -> np.ndarray:
    """Worst-start total variation distance at t = 0..tmax."""
    with closing(_tv_iter(matrix, pi)) as it:
        return np.array([next(it)[1] for _ in range(tmax + 1)])


def _check_monotone(curve, upto: int):
    for t in range(upto):
        if curve[t + 1] > curve[t] + 1e-12:
            raise PropertyViolationError(
                f"TV curve is not monotone: tv({t})={curve[t]} < tv({t + 1})={curve[t + 1]}"
            )


def mixing_time_exact(matrix: np.ndarray, pi: np.ndarray, eps: float,
                      tmax: int | None = None) -> int:
    """Smallest t with TV(t') <= eps for every t' up to the scanned horizon.

    The "for all later times" clause is honored by scanning the whole
    curve rather than assuming monotone decay: with an explicit tmax the
    curve is computed to tmax and must end below eps; without one the scan
    continues to twice the first crossing (at least 16 steps beyond).
    Non-monotone curves are rejected with diagnostics.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    hard_cap = tmax if tmax is not None else 1 << 20
    with closing(_tv_iter(matrix, pi)) as it:
        curve = [next(it)[1]]
        crossing = None if curve[0] > eps else 0
        t = 0
        while True:
            if crossing is not None:
                horizon = tmax if tmax is not None else max(2 * crossing, crossing + 16)
                if t >= horizon:
                    break
            elif tmax is not None and t >= tmax:
                break
            if t >= hard_cap and crossing is None:
                raise BudgetExceededError(
                    f"TV distance still {curve[-1]} > {eps} at the horizon t={t}"
                )
            t, value = next(it)
            curve.append(value)
            if crossing is None and value <= eps:
                crossing = t
    _check_monotone(curve, len(curve) - 1)
    over = [t for t, v in enumerate(curve) if v > eps]
    if over and over[-1] == len(curve) - 1:
        raise BudgetExceededError(
            f"TV distance still {curve[-1]} > {eps} at the horizon t={len(curve) - 1}"
        )
    return over[-1] + 1 if over else 0


def mixing_bracket(kernel: ChainKernel, eps: float,
                   budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Bounds (lower, upper) on tau(eps) of a constant-bias exclusion chain.

    Only the top word (0^n0 1^n1) and the bottom word (1^n1 0^n0) are
    evolved, as one 2 x n block, so the cost is O(nnz) per step instead
    of the O(n^2) of the worst-start scan.

    lower: 1 + the last t at which the TV distance from either extremal
    start exceeds eps.  Each of them is at most d(t), so tau >= lower.

    upper: the first t with E_top[area] - E_bottom[area] <= eps.  The
    heat-bath update (pick a site; if the labels differ, put the 0 first
    with probability p) is monotone in the area order, so the chains from
    the top and the bottom word sandwich every other start and
    d(t) <= P(X_top != X_bottom) <= E_top[area] - E_bottom[area]
    (Wilson 2004).  d(t) does not increase, so tau <= upper, and no TV
    value beyond upper can exceed eps: the scan stops there.

    The coupling is established only for a state-independent bias, so the
    bias must carry ``constant_p`` (see ``kernels.constant_bias``).  The
    stationary law pi ~ (p/(1-p))^area is checked by its residual
    ||pi P - pi||, and max TV <= the area difference at every step.
    """
    p = getattr(getattr(kernel, "bias", None), "constant_p", None)
    if not isinstance(kernel, GeneralizedExclusionChain) or p is None:
        raise ValidationError(
            "mixing_bracket needs an exclusion chain with a constant bias; the "
            "monotone coupling behind the upper bound is not established otherwise"
        )
    if eps <= 0:
        raise ValidationError("eps must be positive")
    space = space_for_kernel(kernel, budget=budget)
    matrix = build_csr(kernel, space)
    areas = np.array([area(s) for s in space.states], dtype=float)
    logs = areas * (math.log(p) - math.log1p(-p))
    pi = np.exp(logs - logs.max())
    pi /= pi.sum()
    forward = matrix.T.tocsr()
    residual = float(np.abs(forward @ pi - pi).max())
    if residual > 1e-12:
        raise PropertyViolationError(f"pi P != pi for the area law (residual {residual})")

    # row 0 evolves from the top word, row 1 from the bottom word; one
    # contiguous matvec per row measured faster than an (n, 2) block product
    dist = np.zeros((2, len(space)))
    dist[0, space.index[top_word(kernel.n1, kernel.n0)]] = 1.0
    dist[1, space.index[bottom_word(kernel.n1, kernel.n0)]] = 1.0
    curve = []
    t = 0
    while True:
        tv = 0.5 * float(np.abs(dist - pi).sum(axis=1).max())
        top_area, bottom_area = dist @ areas
        spread = float(top_area - bottom_area)
        if tv > spread + 1e-12:
            raise PropertyViolationError(
                f"TV {tv} from an extremal start exceeds the coupling bound "
                f"{spread} at t={t}"
            )
        curve.append(tv)
        if spread <= eps:
            break
        if t >= 1 << 20:
            raise BudgetExceededError(
                f"coupling bound still {spread} > {eps} at the horizon t={t}"
            )
        dist = np.stack([forward @ dist[0], forward @ dist[1]])
        t += 1
    _check_monotone(curve, t)
    over = [s for s, v in enumerate(curve) if v > eps]
    return (over[-1] + 1 if over else 0), t


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class DecompositionReport:
    gap_full: float
    gap_projection: float
    restriction_gaps: tuple[float, ...]
    slack: float

    @property
    def min_restriction_gap(self) -> float:
        return min(self.restriction_gaps)

    @property
    def holds(self) -> bool:
        return self.slack >= -1e-12


def verify_decomposition(matrix: np.ndarray, pi: np.ndarray, blocks) -> DecompositionReport:
    """Evaluate the restriction/projection gap inequality on a state partition.

    Restrictions reject moves that leave their block (the rejected mass
    moves to the diagonal); the projection aggregates flow between blocks
    weighted by the stationary distribution.  Returns all gaps and the
    slack of gap(P) >= (1/2) gap(projection) min_i gap(restriction_i).
    An internally disconnected block simply reports restriction gap 0.
    """
    n = matrix.shape[0]
    seen = np.zeros(n, dtype=bool)
    for b in blocks:
        for i in b:
            if seen[i]:
                raise ValidationError(f"state {i} appears in two blocks")
            seen[i] = True
    if not seen.all():
        raise ValidationError("blocks do not cover the state space")

    restriction_gaps = []
    for b in blocks:
        idx = np.asarray(sorted(b), dtype=int)
        sub = matrix[np.ix_(idx, idx)].copy()
        off = sub.sum(axis=1) - np.diag(sub)
        np.fill_diagonal(sub, 1.0 - off)
        pi_b = pi[idx] / pi[idx].sum()
        restriction_gaps.append(spectral_gap(sub, pi_b))

    m = len(blocks)
    proj = np.zeros((m, m))
    mass = np.zeros(m)
    for bi, b in enumerate(blocks):
        idx = np.asarray(sorted(b), dtype=int)
        mass[bi] = pi[idx].sum()
        flow = pi[idx, None] * matrix[idx, :]
        for bj, c in enumerate(blocks):
            proj[bi, bj] = flow[:, np.asarray(sorted(c), dtype=int)].sum()
        proj[bi, :] /= mass[bi]
    gap_projection = spectral_gap(proj, mass / mass.sum())

    gap_full = spectral_gap(matrix, pi)
    slack = gap_full - 0.5 * gap_projection * min(restriction_gaps)
    return DecompositionReport(gap_full=gap_full, gap_projection=gap_projection,
                               restriction_gaps=tuple(restriction_gaps), slack=slack)


def blocks_by_class_positions(space: StateSpace, classes) -> list[list[int]]:
    """Partition a word space by the positions of the given class labels."""
    classes = set(classes)
    groups: dict[tuple, list[int]] = {}
    for i, word in enumerate(space.states):
        key = tuple(p for p, label in enumerate(word) if label in classes)
        groups.setdefault(key, []).append(i)
    return [groups[k] for k in sorted(groups)]


# ---------------------------------------------------------------------------
# canonical paths and congestion


@dataclass(frozen=True)
class CanonicalPath:
    """Adjacent-transposition route realizing one transposition-chain edge."""

    x: tuple
    y: tuple
    direction: str
    states: tuple
    swap_positions: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.swap_positions)


@dataclass(frozen=True)
class PathRecord:
    x_index: int
    y_index: int
    prob: float  # transition probability of the richer chain for this edge
    path: CanonicalPath


class _PathBuilder:
    def __init__(self, state):
        self.cur = list(state)
        self.states = [tuple(state)]
        self.positions: list[int] = []

    def swap(self, p: int):
        """Exchange positions p and p+1 (1-based)."""
        self.cur[p - 1], self.cur[p] = self.cur[p], self.cur[p - 1]
        self.positions.append(p)
        self.states.append(tuple(self.cur))


def _lr_path(x, i: int, j: int) -> _PathBuilder:
    # slide the left endpoint right to j-1, swap the pair, slide the other back
    b = _PathBuilder(x)
    for p in range(i, j - 1):
        b.swap(p)
    b.swap(j - 1)
    for p in range(j - 2, i - 1, -1):
        b.swap(p)
    return b


def _n_path(x, i: int, j: int, classes) -> _PathBuilder:
    """Two-phase same-class exchange that never dips below the edge weight.

    Phase I walks the right element (b) leftward; before b crosses a
    maximal block of smaller-class elements, the nearest larger-or-equal
    element on the block's left is walked rightward across the block so b
    crosses it first.  Phase II walks a rightward retracing the same
    steps, restoring every displaced element.
    """
    b = _PathBuilder(x)
    cls = list(classes)

    def swap(p):
        b.swap(p)
        cls[p - 1], cls[p] = cls[p], cls[p - 1]

    target_class = cls[j - 1]
    jb = j
    while jb > i:
        if cls[jb - 2] >= target_class:
            swap(jb - 1)
            jb -= 1
        else:
            l = max(p for p in range(i, jb) if cls[p - 1] >= target_class)
            for m in range(l, jb - 1):
                swap(m)
            for m in range(jb - 1, l - 1, -1):
                swap(m)
            jb = l
    ja = b.cur.index(x[i - 1]) + 1
    while ja < j:
        if cls[ja] > target_class:
            swap(ja)
            ja += 1
        else:
            l = min(p for p in range(ja + 1, j + 1) if cls[p - 1] > target_class)
            for m in range(ja, l):
                swap(m)
            for m in range(l - 2, ja - 1, -1):
                swap(m)
            ja = l
    return b


def canonical_path(x, y, direction: str, prob_set: ProbabilitySet,
                   partition: ClassPartition, *, prop3_order: bool = False) -> CanonicalPath:
    """Build the canonical adjacent-transposition path for one edge.

    (x, y) must be a positive-probability move of the transposition chain
    with the claimed direction.  L and R edges slide one element across
    the (strictly smaller-class) gap and back; N edges use the two-phase
    construction.  With ``prop3_order`` the N construction is mirrored
    (the left element moves right first), matching sets that satisfy the
    column rather than the row monotonicity clause.
    """
    x, y = tuple(x), tuple(y)
    diff = [p for p in range(1, len(x) + 1) if x[p - 1] != y[p - 1]]
    if len(diff) != 2 or permcore.transpose(x, *diff) != y:
        raise ValidationError(f"{x} -> {y} is not a single transposition")
    i, j = diff
    moves = [mv for mv in mtk_moves(x, prob_set, partition)
             if (mv.i, mv.j) == (i, j) and mv.direction == direction]
    if not moves:
        raise ValidationError(
            f"{x} -> {y} is not a direction-{direction} move of the transposition chain"
        )
    builder = _build_edge_path(x, i, j, direction, partition, prop3_order)
    if builder.states[-1] != y:
        raise PropertyViolationError(
            f"path construction ended at {builder.states[-1]} instead of {y}"
        )
    return CanonicalPath(x=x, y=y, direction=direction,
                         states=tuple(builder.states),
                         swap_positions=tuple(builder.positions))


def _build_edge_path(x, i, j, direction, partition, prop3_order):
    if direction in ("L", "R"):
        return _lr_path(x, i, j)
    classes = [partition.class_of(el) for el in x]
    if not prop3_order:
        return _n_path(x, i, j, classes)
    n = len(x)
    rx = tuple(reversed(x))
    mirrored = _n_path(rx, n + 1 - j, n + 1 - i, list(reversed(classes)))
    builder = _PathBuilder(x)
    builder.states = [tuple(reversed(s)) for s in mirrored.states]
    builder.positions = [n - p for p in mirrored.positions]
    builder.cur = list(builder.states[-1])
    return builder


def collect_canonical_paths(space: StateSpace, prob_set: ProbabilitySet,
                            partition: ClassPartition, *,
                            prop3_order: bool = False) -> list[PathRecord]:
    """Canonical paths for every transposition-chain edge over a space."""
    if space.kind != "permutations":
        raise ValidationError("canonical paths are defined over permutation spaces")
    n = partition.n
    base = 1.0 / (3 * n)
    records = []
    for xi, x in enumerate(space.states):
        for mv in mtk_moves(x, prob_set, partition):
            y = permcore.transpose(x, mv.i, mv.j)
            builder = _build_edge_path(x, mv.i, mv.j, mv.direction, partition, prop3_order)
            if builder.states[-1] != y:
                raise PropertyViolationError(
                    f"path construction ended at {builder.states[-1]} instead of {y}"
                )
            path = CanonicalPath(x=x, y=y, direction=mv.direction,
                                 states=tuple(builder.states),
                                 swap_positions=tuple(builder.positions))
            records.append(PathRecord(x_index=xi, y_index=space.index[y],
                                      prob=base * mv.acceptance, path=path))
    return records


@dataclass(frozen=True)
class CongestionReport:
    """Per-edge path loads and the comparison constant they imply."""

    constant: float  # the congestion constant A
    argmax_edge: tuple
    max_path_count: int  # largest number of paths through one edge
    max_path_len: int
    n_paths: int
    edge_counts: dict

    @property
    def A(self) -> float:
        return self.constant


def congestion(nn_matrix: sp.spmatrix | np.ndarray, paths: list[PathRecord],
               pi: np.ndarray, space: StateSpace) -> CongestionReport:
    """Congestion of a path family over the adjacent-transposition edges.

    For each directed edge (z, w) of the nearest-neighbor chain the load
    is sum over paths through it of |path| pi(x) P'(x, y); the constant is
    the maximum load divided by pi(z) P(z, w).
    """
    nn_matrix = sp.csr_matrix(nn_matrix)
    index = space.index
    counts: dict[tuple[int, int], int] = {}
    loads: dict[tuple[int, int], float] = {}
    max_len = 0
    for rec in paths:
        length = rec.path.length
        max_len = max(max_len, length)
        contribution = length * pi[rec.x_index] * rec.prob
        states = rec.path.states
        for a, bstate in zip(states[:-1], states[1:]):
            edge = (index[a], index[bstate])
            counts[edge] = counts.get(edge, 0) + 1
            loads[edge] = loads.get(edge, 0.0) + contribution
    best = 0.0
    best_edge = None
    if loads:
        edges = np.array(list(loads), dtype=np.int64)
        rates = np.asarray(nn_matrix[edges[:, 0], edges[:, 1]]).ravel()
        # edges are in order of first use, so the first bad one is the
        # first path step that leaves the nearest-neighbor chain
        bad = np.flatnonzero(rates <= 0)
        if bad.size:
            u, v = edges[bad[0]]
            raise PropertyViolationError(
                f"path step {space.states[u]} -> {space.states[v]} is not a "
                "nearest-neighbor edge"
            )
        values = (np.fromiter(loads.values(), float, len(loads))
                  / (pi[edges[:, 0]] * rates))
        k = int(np.argmax(values))
        if values[k] > best:
            best = float(values[k])
            best_edge = (space.states[edges[k, 0]], space.states[edges[k, 1]])
    return CongestionReport(constant=best, argmax_edge=best_edge,
                            max_path_count=max(counts.values()) if counts else 0,
                            max_path_len=max_len, n_paths=len(paths),
                            edge_counts=counts)


def comparison_bound(constant: float, pi_star: float, tau_prime: float,
                     eps: float) -> float:
    """Mixing-time bound transferred through a path family.

    4 log(1/(eps pi_star)) A tau'(eps) / log(1/(2 eps)); eps must lie in
    (0, 1/2) so the denominator is positive.
    """
    if not 0.0 < eps < 0.5:
        raise ValidationError(f"eps={eps} must lie in (0, 1/2)")
    if constant <= 0 or pi_star <= 0 or tau_prime <= 0:
        raise ValidationError("constant, pi_star and tau_prime must be positive")
    return 4.0 * math.log(1.0 / (eps * pi_star)) * constant * tau_prime \
        / math.log(1.0 / (2.0 * eps))


# ---------------------------------------------------------------------------
# scaling fits and the small-n gap spot check


@dataclass(frozen=True)
class ScalingFit:
    sizes: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    intercept: float
    max_residual: float


def fit_loglog(sizes, values) -> ScalingFit:
    """Least-squares slope of log(value) against log(size)."""
    sizes = tuple(int(s) for s in sizes)
    values = tuple(float(v) for v in values)
    if len(sizes) < 3:
        raise ValidationError("a scaling fit needs at least 3 sizes")
    if len(sizes) != len(values):
        raise ValidationError("sizes and values differ in length")
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    return ScalingFit(sizes=sizes, values=values, slope=float(slope),
                      intercept=float(intercept),
                      max_residual=float(np.abs(residuals).max()))


def gap_scaling(family, sizes, budget: int = DEFAULT_BUDGET) -> ScalingFit:
    """Log-log slope of the relaxation time 1/gap across sizes.

    ``family`` maps a size to a kernel; the kernel's natural space is
    enumerated within the budget.
    """
    values = []
    for size in sizes:
        kernel = family(size)
        space = space_for_kernel(kernel, budget=budget)
        matrix = build_csr(kernel, space)
        pi = stationary_exact(matrix)
        values.append(1.0 / spectral_gap(matrix, pi))
    return fit_loglog(sizes, values)


def fill_spot_check(n: int, count: int, seed: int):
    """Gap of seeded random monotone positively biased sets vs the uniform gap.

    Returns (violations, gaps, uniform_gap) where violations lists the
    seed indices whose gap fell below the uniform chain's gap.
    """
    from .kernels import AdjacentTranspositionChain
    from .model import random_monotone_set

    space = enumerate_states("permutations", n=n)
    uniform_matrix = build_csr(AdjacentTranspositionChain(uniform_set(n)), space)
    uniform_gap = spectral_gap(uniform_matrix)
    gaps = []
    violations = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        prob_set = random_monotone_set(n, rng)
        matrix = build_csr(AdjacentTranspositionChain(prob_set), space)
        gap = spectral_gap(matrix)
        gaps.append(gap)
        if gap < uniform_gap - 1e-12:
            violations.append(k)
    return violations, gaps, uniform_gap
