"""Exact state-space analysis and the canonical-path comparison machinery.

Everything here works on explicitly enumerated state spaces with
row-stochastic matrices built once in CSR form (``build_csr``).  One
next-permutation enumerator lists every space (``enumerate_states``), and
``scaling_values`` is the one size sweep of ``gap_scaling`` and the CLI's
``scaling`` experiment.  The
irreducibility check, the stationary solve, the detailed-balance scan, the
spectral gap, the TV scan and the congestion constant take the CSR matrix
as it is and accept a dense array by converting it with ``sp.csr_matrix``;
so does ``verify_decomposition``, which takes its partition as one
integer block label per state and slices each block's rows and columns
out of the CSR as small dense arrays.  ``build_matrix`` is the
dense form, for callers that want one.  Besides the laws of the
worst-start TV scan, the only n x n arrays this allocates are the matrix
``build_matrix`` returns, the linear system of ``stationary_exact`` and,
up to ``dense_cutoff`` states, the symmetrized matrix of ``spectral_gap``.
Eigenvalues are always computed on the symmetrized reversible form
D^(1/2) P D^(-1/2); reversibility is asserted first via the
detailed-balance scan, which keeps spectra real and matches the
reversible-chain setting of the gap and comparison bounds.  Given no pi,
``spectral_gap`` does not solve: it adds the log edge ratios
P(u, v) / P(v, u) along a breadth-first tree of the support, in O(nnz),
and checks every stored pair and the residual of the result.
The canonical paths of an M_tk kernel come as one ``PathFamily`` of
index arrays, its state sequences in CSR form: each path's swap positions
are built once per class word and applied to all of the word's
permutations through a table of adjacent swaps, and ``congestion`` sums
the loads per edge over those arrays with ``np.bincount``.
"""

from __future__ import annotations

import math
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import accumulate
from queue import SimpleQueue

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

from . import permcore
from .errors import BudgetExceededError, PropertyViolationError, ValidationError
from .exclusion import area, bottom_word, top_word
from .kernels import (AdjacentTranspositionChain, ChainKernel, ClassTranspositionChain,
                      GeneralizedExclusionChain)
from .model import (DEFAULT_BUDGET, ClassPartition, ProbabilitySet, _usable_cores,
                    check_memory, check_weak_monotonicity, parse_int, parse_real,
                    random_monotone_set, uniform_set, validate_kclass)

_BALANCE_TOL = 1e-8  # detailed-balance violation spectral_gap accepts as reversible
_RATIO_TOL = 1e-9  # relative imbalance of a stored pair the edge-ratio pi accepts
_TV_BLOCK = 128  # starts per column block of the TV scan; 64..256 time alike
_TV_CHUNK = 16  # TV steps per pool dispatch of a block; 8..32 time alike
_TV_HORIZON = 1 << 20  # longest TV scan or coupling run, in steps


# ---------------------------------------------------------------------------
# state spaces and matrices


@dataclass(frozen=True)
class StateSpace:
    """Canonically ordered list of states with both index maps."""

    kind: str  # "permutations" | "words" | "binary"
    states: tuple

    def __post_init__(self):
        object.__setattr__(self, "index", {s: i for i, s in enumerate(self.states)})
        if len(self.index) != len(self.states):
            raise ValidationError("duplicate states in space")

    def __len__(self):
        return len(self.states)


def _rearrangements(labels) -> tuple:
    """Every distinct ordering of a sorted label list, ascending
    lexicographic: each step swaps the last ascent a[i] < a[i + 1] with the
    last later label above a[i] and reverses the tail after i."""
    a = list(labels)
    out = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return tuple(out)
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]
        out.append(tuple(a))


def enumerate_states(kind: str, *, n: int | None = None, multiplicities=None,
                     n1: int | None = None, n0: int | None = None,
                     budget: int = DEFAULT_BUDGET) -> StateSpace:
    """Enumerate a state space in deterministic (lexicographic) order.

    kind "permutations" needs n; "words" needs multiplicities (the class
    sizes); "binary" needs n1 and n0.  Each space is the orderings of one
    label multiset (1..n, c copies of class label c, n0 zeros and n1 ones);
    spaces above the budget (its multinomial count) are refused up front.
    """
    if kind == "permutations":
        first, sizes = 1, [1] * parse_int(n, "n", low=1)
    elif kind == "words":
        if not multiplicities:
            raise ValidationError("words need multiplicities")
        first, sizes = 1, [parse_int(c, "a multiplicity", low=1) for c in multiplicities]
    elif kind == "binary":
        first, sizes = 0, [parse_int(n0, "n0", low=0), parse_int(n1, "n1", low=0)]
    else:
        raise ValidationError(f"unknown space kind {kind!r}")
    count = math.prod(map(math.comb, accumulate(sizes), sizes))  # the multinomial
    if count > budget:
        raise BudgetExceededError(f"{count} states exceed the budget of {budget}")
    return StateSpace(kind=kind, states=_rearrangements(permcore.sorted_labels(sizes, first)))


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
    # scipy.sparse.csgraph, and scipy.sparse.linalg in spectral_gap, are
    # imported on first use: csgraph loads scipy.sparse.linalg and
    # scipy.linalg, +11 MiB RSS and 35-50 ms on top of numpy and
    # scipy.sparse, which runs that build no matrix (hitting times, walks)
    # never need
    from scipy.sparse.csgraph import connected_components

    count, _ = connected_components(_support(matrix), directed=True, connection="strong")
    return count == 1


def _support(matrix: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """Boolean CSR of the positive entries, duplicates merged (the csgraph
    traversals do not return on a CSR with duplicate entries)."""
    support = sp.csr_matrix(matrix) > 0
    support.sum_duplicates()
    return support


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
    check_memory(2 * 8 * n * n, f"the dense stationary solve over {n} states")
    if not is_irreducible(matrix):
        raise ValidationError("matrix is not irreducible")
    # P^T - I with exact entries (m_ji off the diagonal, m_ii - 1.0 on it),
    # so the LU sees the same system from CSR and from dense input; the
    # transposed view is F-contiguous, so numpy hands it to LAPACK's
    # column-major buffer by a straight copy instead of a strided transpose
    a = matrix.toarray().T
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


def _stationary_reversible(matrix: sp.csr_matrix) -> np.ndarray:
    """pi of an irreducible reversible matrix from its edge ratios, in O(nnz).

    Reversibility gives pi(v) / pi(u) = P(u, v) / P(v, u) on every edge, so
    log pi adds up log P(u, v) - log P(v, u) along a breadth-first tree of
    the positive support.  The result is accepted only if every stored pair
    balances to ``_RATIO_TOL`` of its larger flow and the residual
    |pi P - pi| is at most 1e-9; otherwise the chain is not reversible
    (``PropertyViolationError``).  A reducible matrix is a
    ``ValidationError``, as in ``stationary_exact``.
    """
    from scipy.sparse.csgraph import breadth_first_order

    if not is_irreducible(matrix):
        raise ValidationError("matrix is not irreducible")
    order, parent = breadth_first_order(_support(matrix), 0, directed=True,
                                        return_predecessors=True)
    down = order[1:]
    up = parent[down]
    forward = np.asarray(matrix[up, down]).ravel()
    backward = np.asarray(matrix[down, up]).ravel()
    if backward.min() <= 0.0:
        i = int(backward.argmin())
        raise PropertyViolationError(f"matrix is not reversible: edge "
                                     f"{(int(up[i]), int(down[i]))} has no reverse transition")
    logpi = np.zeros(matrix.shape[0])
    for u, v, step in zip(up.tolist(), down.tolist(),
                          (np.log(forward) - np.log(backward)).tolist()):
        logpi[v] = logpi[u] + step
    pi = np.exp(logpi - logpi.max())
    pi /= pi.sum()
    pairs = matrix.tocoo()
    out = pi[pairs.row] * pairs.data
    back = pi[pairs.col] * np.asarray(matrix[pairs.col, pairs.row]).ravel()
    excess = np.abs(out - back) - _RATIO_TOL * np.maximum(out, back)
    if excess.max(initial=0.0) > 0.0:
        i = int(excess.argmax())
        raise PropertyViolationError(
            f"matrix is not reversible: edge {(int(pairs.row[i]), int(pairs.col[i]))} "
            f"carries flows {out[i]} and {back[i]}")
    residual = float(np.abs(matrix.T @ pi - pi).max())
    if residual > 1e-9:
        raise PropertyViolationError(f"edge-ratio stationary law has residual {residual}")
    return pi


def stationary_formula(space: StateSpace, prob_set: ProbabilitySet,
                       partition: ClassPartition | None = None) -> np.ndarray:
    """Normalized product-of-probabilities weights over the space.

    Permutation spaces use the pairwise matrix directly; word spaces use
    the class-pair table (which requires the partition).  Log weights are
    normalized with the max subtracted, so underflow is not a concern.
    """
    if space.kind == "permutations":
        logs = permcore.log_weights(space.states, prob_set)
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
                 *, dense_cutoff: int = 2000) -> float:
    """1 minus the second-largest eigenvalue modulus of a reversible matrix.

    Parameters
    ----------
    matrix : row-stochastic square matrix, CSR or dense
    pi : stationary distribution; when omitted, built from the edge ratios
        of the matrix along a breadth-first tree (``_stationary_reversible``),
        which refuses a reducible or non-reversible matrix
    dense_cutoff : above this size the top and bottom of the spectrum are
        obtained with sparse Lanczos iterations instead of a dense solve

    Reversibility is asserted first, to a detailed-balance violation of at
    most ``_BALANCE_TOL``.  The spectrum is taken from the symmetrized form
    D^(1/2) P D^(-1/2).  A 1-state chain has gap 1 by convention, which
    keeps decomposition inequalities evaluable on degenerate partitions.
    """
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    if n == 1:
        return 1.0
    if pi is None:
        pi = _stationary_reversible(matrix)
    if pi.min() <= 0:
        raise PropertyViolationError(
            "a stationary mass is at or below the solver's resolution; the "
            "symmetrized form is not computable for this matrix"
        )
    report = check_detailed_balance(matrix, pi)
    if report.max_violation > _BALANCE_TOL:
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
        import scipy.sparse.linalg as spla

        scaled = sp.diags(root) @ matrix @ sp.diags(1.0 / root)
        sym = 0.5 * (scaled + scaled.T)
        top = spla.eigsh(sym, k=2, which="LA", return_eigenvectors=False)
        bottom = spla.eigsh(sym, k=1, which="SA", return_eigenvectors=False)
        second = max(abs(float(np.sort(top)[0])), abs(float(bottom[0])))
    return 1.0 - float(second)


def _column_tv(law: np.ndarray, column: np.ndarray, diff: np.ndarray) -> float:
    """Largest column sum of |law - column|, the states added in index order,
    computed in place through ``diff`` (a buffer of law's shape)."""
    np.subtract(law, column, out=diff)
    np.abs(diff, out=diff)
    return float(diff.sum(axis=0).max())


def _tv_iter(matrix: sp.spmatrix | np.ndarray, pi: np.ndarray):
    """Yield (t, worst-start TV distance) for t = 0, 1, 2, ...

    Every start is evolved: the laws are held as C-contiguous n x b blocks
    whose column c is the law of the chain started at state s + c, and each
    step applies P^T (CSR, sorted indices) to every block.  The product sums
    each entry over the source states in ascending order and the axis-0
    reduction adds the states in index order, the summation order of the
    whole-matrix propagation P^t @ csr(P); the tests hold the curve
    bit-identical to it.

    The unit of dispatch is one block advanced through ``_TV_CHUNK``
    consecutive steps, spread over a thread pool when there is more than
    one block and more than one usable core.  The pool is waited on once
    per chunk, not once per step, and a block stays in cache across its
    chunk.  When every task of a chunk has returned, the generator yields
    the chunk's per-step maxima in order, so a scan read to step t has
    computed at most ``_TV_CHUNK - 1`` steps past t.

    Every buffer is allocated before the first step and reused: each block
    lives in a flat buffer of n * min(_TV_BLOCK, n) doubles, and each worker
    holds one (product, difference) pair of the same size.  A step writes
    the product into the spare buffer, reduces through the difference
    buffer and swaps the two, so a task ping-pongs between its block and
    the product buffer.  A scan whose buffers exceed physical memory is
    refused with ``BudgetExceededError`` before any is allocated.  Close
    the generator to release the pool.

    Only each step's max is yielded, so a block is reduced at a step only
    if it can hold that step's max.  For any law mu,
    mu P - pi = (mu - pi) P + (pi P - pi), so
    |mu P - pi|_1 <= rho |mu - pi|_1 + |pi P - pi|_1 with rho the largest row
    sum of |P|: a start's distance rises by at most the residual of pi.  Each
    block keeps a bound on its largest column sum, the value it was last
    reduced to, advanced to ``rho * bound + slack`` at every step it skips.
    slack is the residual plus 2 n eps rho |pi|_1 for the rounding of the
    product; rho and slack are multiplied by 1 + 8 n eps for the rounding
    of the reductions and of computing them, so the bound holds for the
    float a reduction would give.  Both are computed once, before step 1.
    Each chunk dispatches the blocks in descending order of bound, and
    keeps, per step, the largest value any block has reduced at that step.
    A block whose advanced bound at a step is at most that value skips its
    reduction there: it cannot exceed it.  So every step's max is the same
    float, and every block's laws are still propagated every step.
    At total 12 (924 states, eight blocks) 85% of the block reductions of
    the 768-step scan are skipped.
    """
    n = matrix.shape[0]
    size = n * min(_TV_BLOCK, n)
    widths = [min(_TV_BLOCK, n - s) for s in range(0, n, _TV_BLOCK)]
    if len(widths) > 1 and widths[-1] == 1:
        # a 1-wide block reduces one contiguous column, which numpy sums
        # pairwise, not in state order: the block before lends it a start
        widths[-2:] = [_TV_BLOCK - 1, 2]
    workers = min(len(widths), _usable_cores())
    check_memory(8 * size * (len(widths) + 2 * workers), f"the TV scan over {n} states")
    # float64 like the laws: csr_matvecs casts its inputs to the matrix's type
    forward = sp.csr_matrix(matrix.T, dtype=np.float64)
    forward.sort_indices()
    blocks = []
    bounds = []  # per block: an upper bound on its largest column sum
    # t = 0 reduces rows of the identity along their contiguous axis, which
    # sums in the same (pairwise) order as the full n x n identity did
    for width, s in zip(widths, accumulate(widths, initial=0)):
        rows = np.zeros((width, n))
        rows[np.arange(width), np.arange(s, s + width)] = 1.0
        bounds.append(float(np.abs(rows - pi).sum(axis=1).max()))
        block = np.zeros(size)
        block[:n * width].reshape(n, width)[...] = rows.T
        blocks.append(block)
    yield 0, 0.5 * max(bounds, default=0.0)

    eps = np.finfo(np.float64).eps
    inflate = 1.0 + 8 * n * eps
    # column sums of |P^T| are the row sums of |P|
    rho = inflate * float(np.bincount(forward.indices, np.abs(forward.data), n).max())
    residual = float(np.abs(forward @ pi - pi).sum())
    slack = inflate * (residual + 2 * n * eps * rho * float(np.abs(pi).sum()))
    column = pi[:, None]
    spare = SimpleQueue()
    for _ in range(workers):
        spare.put((np.empty(size), np.empty(size)))
    # per step of the chunk, the largest value reduced so far at that step; a
    # lost update between workers leaves another reduced value, which only
    # prunes less
    best = [0.0] * _TV_CHUNK

    def advance(k):
        width = widths[k]
        used = n * width
        block = blocks[k]
        product, diff = spare.get()
        values = []
        for step in range(_TV_CHUNK):
            product[:used] = 0.0
            # the routine forward @ block runs, accumulating into product
            csr_matvecs(n, n, width, forward.indptr, forward.indices, forward.data,
                        block[:used], product[:used])
            ceiling = rho * bounds[k] + slack
            if best[step] >= ceiling:
                value = 0.0  # below a value already reduced: cannot be the max
                bounds[k] = ceiling
            else:
                value = _column_tv(product[:used].reshape(n, width), column,
                                   diff[:used].reshape(n, width))
                bounds[k] = value
                best[step] = max(best[step], value)
            values.append(value)
            block, product = product, block
        blocks[k] = block
        # queued only once the chunk is done: the next worker to take the
        # pair overwrites both buffers
        spare.put((product, diff))
        return values

    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        t = 0
        while True:
            best[:] = [0.0] * _TV_CHUNK
            order = sorted(range(len(blocks)), key=bounds.__getitem__, reverse=True)
            chunk = pool.map(advance, order) if pool else map(advance, order)
            # unpacking waits for every task before the chunk's first yield
            for value in map(max, zip(*chunk)):
                t += 1
                yield t, 0.5 * value
    finally:
        if pool is not None:
            pool.shutdown()


def tv_curve(matrix: sp.spmatrix | np.ndarray, pi: np.ndarray, tmax: int) -> np.ndarray:
    """Worst-start total variation distance at t = 0..tmax (at most _TV_HORIZON)."""
    if tmax is None:
        raise ValidationError("tmax must be an integer, got None")
    tmax = check_horizon(tmax)
    with closing(_tv_iter(matrix, pi)) as it:
        return np.array([next(it)[1] for _ in range(tmax + 1)])


def check_horizon(tmax) -> int | None:
    """``tmax`` read as an integer >= 0 (``parse_int``) and refused beyond
    ``_TV_HORIZON``; None, setting no tmax, passes."""
    if tmax is None:
        return None
    tmax = parse_int(tmax, "tmax", low=0)
    if tmax > _TV_HORIZON:
        raise BudgetExceededError(f"tmax {tmax} exceeds the TV horizon of {_TV_HORIZON} steps")
    return tmax


def _check_eps(eps) -> float:
    """``eps`` read as a real (``parse_real``), refused unless finite and > 0."""
    eps = parse_real(eps, "eps")
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be a finite real > 0, got {eps}")
    return eps


def _tau(curve, eps: float) -> int:
    """1 + the last t with curve[t] > eps, or 0 if there is none.

    The "for all later times" clause of tau is honoured by reading the
    whole curve, not by assuming decay; a step that rises by more than
    1e-12 is rejected with diagnostics.
    """
    for t in range(len(curve) - 1):
        if curve[t + 1] > curve[t] + 1e-12:
            raise PropertyViolationError(
                f"TV curve is not monotone: tv({t})={curve[t]} < tv({t + 1})={curve[t + 1]}"
            )
    return max((t + 1 for t, value in enumerate(curve) if value > eps), default=0)


def mixing_time_exact(matrix: sp.spmatrix | np.ndarray, pi: np.ndarray, eps: float,
                      tmax: int | None = None) -> int:
    """Smallest t with TV(t') <= eps for every scanned t' >= t (``_tau``).

    With an explicit tmax the curve is scanned to tmax.  Without one the
    scan ends at max(2c, c + 16), where c is the first t with TV(t) <= eps,
    and at ``_TV_HORIZON`` while no such t has been seen.  A tmax beyond
    ``_TV_HORIZON``, and a curve still above eps at the end of the scan,
    exceed the budget; non-monotone curves are rejected.
    """
    eps = _check_eps(eps)
    end = check_horizon(tmax)
    curve = []
    with closing(_tv_iter(matrix, pi)) as it:
        for t, value in it:
            curve.append(value)
            if end is None and value <= eps:
                end = max(2 * t, t + 16)
            if t >= (_TV_HORIZON if end is None else end):
                break
    tau = _tau(curve, eps)
    if tau == len(curve):
        raise BudgetExceededError(
            f"TV distance still {curve[-1]} > {eps} at the horizon t={len(curve) - 1}"
        )
    return tau


def mixing_bracket(kernel: ChainKernel, eps: float,
                   budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Bounds (lower, upper) on tau(eps) of a constant-bias exclusion chain.

    Only the top word (0^n0 1^n1) and the bottom word (1^n1 0^n0) are
    evolved, as one 2 x n block, so the cost is O(nnz) per step instead
    of the O(n^2) of the worst-start scan.

    lower: 1 + the last t at which the TV distance from either extremal
    start exceeds eps (``_tau`` of their worst-of-two curve, which must not
    rise).  Each of them is at most d(t), so tau >= lower.

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
    eps = _check_eps(eps)
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
        if t >= _TV_HORIZON:
            raise BudgetExceededError(
                f"coupling bound still {spread} > {eps} at the horizon t={t}"
            )
        dist = np.stack([forward @ dist[0], forward @ dist[1]])
        t += 1
    return _tau(curve, eps), t


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


def verify_decomposition(matrix: sp.spmatrix | np.ndarray, pi: np.ndarray,
                         labels) -> DecompositionReport:
    """Evaluate the restriction/projection gap inequality on a state partition.

    The partition is one integer label per state, block b holding the
    states labelled b; the labels must be 0..m-1, each used.  Restrictions
    reject moves that leave their block (the rejected mass moves to the
    diagonal); the projection aggregates flow between blocks, in label
    order, weighted by the stationary distribution.  Returns all gaps and
    the slack of gap(P) >= (1/2) gap(projection) min_i gap(restriction_i).
    An internally disconnected block simply reports restriction gap 0.
    Each block's rows are sliced out of the CSR as a dense array, in
    ascending state order, so CSR and dense input give equal reports.
    """
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    try:  # ValueError: a ragged list, such as a list of index lists, or no states
        labels = np.asarray(labels)
        valid = (labels.shape == (n,) and labels.dtype.kind in "iu" and labels.min() >= 0
                 and labels.max() < n and np.bincount(labels.astype(np.int64)).all())
    except ValueError:
        valid = False
    if not valid:
        raise ValidationError("blocks must be one integer label per state, 0..m-1 all used")
    indices = _members(labels.astype(np.int64))
    m = len(indices)
    restriction_gaps = []
    proj = np.zeros((m, m))
    mass = np.zeros(m)
    for bi, idx in enumerate(indices):
        mass[bi] = pi[idx].sum()
        sub = matrix[idx][:, idx].toarray()
        off = sub.sum(axis=1) - np.diag(sub)
        np.fill_diagonal(sub, 1.0 - off)
        restriction_gaps.append(spectral_gap(sub, pi[idx] / mass[bi]))
        flow = pi[idx, None] * matrix[idx].toarray()
        for bj, other in enumerate(indices):
            proj[bi, bj] = flow[:, other].sum()
        proj[bi, :] /= mass[bi]
    gap_projection = spectral_gap(proj, mass / mass.sum())

    gap_full = spectral_gap(matrix, pi)
    slack = gap_full - 0.5 * gap_projection * min(restriction_gaps)
    return DecompositionReport(gap_full=gap_full, gap_projection=gap_projection,
                               restriction_gaps=tuple(restriction_gaps), slack=slack)


def _group(keys) -> tuple[list, np.ndarray]:
    """(the distinct keys in ascending order, each item's label: the rank of
    its key among them).  ``keys`` is read once, so a generator keeps only
    the distinct keys alive."""
    ids = {}  # key -> its index in order of first appearance
    first = np.array([ids.setdefault(key, len(ids)) for key in keys], dtype=np.int64)
    distinct = sorted(ids)
    return distinct, np.argsort([ids[key] for key in distinct])[first]


def _members(labels: np.ndarray) -> list[np.ndarray]:
    """Per label 0..max, the items carrying it, in ascending order."""
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])


def blocks_by_class_positions(space: StateSpace, classes) -> np.ndarray:
    """Block labels of a word space partitioned by the positions of the
    given class labels: one label per word, the blocks numbered in
    ascending order of those positions."""
    classes = set(classes)
    return _group(tuple(p for p, label in enumerate(word) if label in classes)
                  for word in space.states)[1]


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


def _lr_shape(i: int, j: int) -> list[int]:
    # slide the left endpoint right to j-1, swap the pair, slide the other back
    return [*range(i, j - 1), j - 1, *range(j - 2, i - 1, -1)]


def _n_shape(classes, i: int, j: int) -> list[int]:
    """Two-phase same-class exchange, kept at or above the edge weight on
    prop2 sets.

    Phase I walks the right element (b) leftward; before b crosses a
    maximal block of smaller-class elements, the nearest larger-or-equal
    element on the block's left is walked rightward across the block so b
    crosses it first.  Phase II walks a rightward retracing the same
    steps, restoring every displaced element.
    """
    cls = list(classes)
    origin = list(range(1, len(cls) + 1))  # where the item now at each position started
    positions: list[int] = []

    def swap(p):
        cls[p - 1], cls[p] = cls[p], cls[p - 1]
        origin[p - 1], origin[p] = origin[p], origin[p - 1]
        positions.append(p)

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
    ja = origin.index(i) + 1
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
    return positions


def _path_shape(classes, i: int, j: int, direction: str, mirrored: bool) -> list[int]:
    """Swap positions of the canonical path of the move exchanging positions
    i < j of a state with these position classes; swap p exchanges the
    items at p and p + 1 (1-based).

    L and R edges slide one item across the (strictly smaller-class) gap
    and back.  N edges use the two-phase construction (``_n_shape``).
    ``mirrored`` N edges take it in the mirror image: reversing a
    permutation and relabelling x -> n + 1 - x carries the product law of
    p to that of p'_ij = p_(n+1-j)(n+1-i), for which prop3 is prop2, so
    the construction runs on the reversed word with labels c -> k + 1 - c
    and positions p -> n + 1 - p, and its swaps p' map back to n - p'.
    """
    if direction != "N":
        return _lr_shape(i, j)
    if not mirrored:
        return _n_shape(classes, i, j)
    n, k = len(classes), max(classes)
    word = [k + 1 - c for c in reversed(classes)]
    return [n - p for p in _n_shape(word, n + 1 - j, n + 1 - i)]


def _mtk(kernel) -> ClassTranspositionChain:
    if not isinstance(kernel, ClassTranspositionChain):
        raise ValidationError(
            f"canonical paths are built for the M_tk kernel, not {type(kernel).__name__}")
    return kernel


def _mirrored(kernel: ClassTranspositionChain) -> bool:
    """Whether the kernel's N paths take the mirrored construction: its set
    is weakly monotone by prop3 but not by prop2."""
    report = check_weak_monotonicity(kernel.prob_set)
    return report.prop3 and not report.prop2


def canonical_path(kernel: ClassTranspositionChain, x, y, direction: str) -> CanonicalPath:
    """Build the canonical adjacent-transposition path for one M_tk edge.

    (x, y) must be one of the kernel's moves (:meth:`ClassTranspositionChain.moves`)
    from x, with the claimed direction.  The path is the one
    ``collect_canonical_paths`` gives that edge (``_path_shape``).  On sets
    weakly monotone by prop1 and prop2 (Bhakta-Miracle-Randall-Streib) it
    stays at or above the lighter endpoint's weight.  On sets weakly
    monotone by prop1 and prop3 alone N edges take the mirrored
    construction, the prop2 argument in the mirror image.  The tests and
    the CLI's ``paths`` experiment check the floor.
    """
    x, y = tuple(x), tuple(y)
    diff = [p for p in range(1, len(x) + 1) if x[p - 1] != y[p - 1]]
    if len(diff) != 2 or permcore.transpose(x, *diff) != y:
        raise ValidationError(f"{x} -> {y} is not a single transposition")
    i, j = diff
    if not any((mv.i, mv.j) == (i, j) and mv.direction == direction
               for mv in _mtk(kernel).moves(x)):
        raise ValidationError(
            f"{x} -> {y} is not a direction-{direction} move of the transposition chain"
        )
    shape = _path_shape(kernel.classes(x), i, j, direction, _mirrored(kernel))
    states = [x]
    for p in shape:
        states.append(permcore.transpose(states[-1], p, p + 1))
    if states[-1] != y:
        raise PropertyViolationError(f"path construction ended at {states[-1]} instead of {y}")
    return CanonicalPath(x=x, y=y, direction=direction, states=tuple(states),
                         swap_positions=tuple(shape))


@dataclass(frozen=True, eq=False)
class PathFamily:
    """The canonical paths of every edge of an M_tk kernel, as flat arrays.

    Path k runs from state ``x[k]`` to state ``y[k]`` (indices into the
    space) by ``length[k]`` adjacent swaps, through the states
    ``states[indptr[k]:indptr[k + 1]]``, both endpoints included.
    ``prob[k]`` is the mass of its move and ``direction[k]`` the move's
    kind, "L", "R" or "N".  Paths are ordered by x, then by the kernel's
    move order.
    """

    x: np.ndarray  # int64
    y: np.ndarray  # int64
    prob: np.ndarray  # float64
    direction: np.ndarray  # str, one character
    length: np.ndarray  # int64
    indptr: np.ndarray  # int64, len(x) + 1 entries
    states: np.ndarray  # int32

    def __len__(self):
        return len(self.x)


def _swap_table(space: StateSpace) -> np.ndarray:
    """table[s, p - 1]: index of state s with positions p and p + 1 exchanged."""
    index = space.index
    out = array("q")
    for state in space.states:
        cur = list(state)
        for p in range(1, len(cur)):
            cur[p - 1], cur[p] = cur[p], cur[p - 1]
            out.append(index[tuple(cur)])
            cur[p - 1], cur[p] = cur[p], cur[p - 1]
    return np.array(out).reshape(len(space), -1)


def collect_canonical_paths(kernel: ClassTranspositionChain,
                            space: StateSpace) -> PathFamily:
    """Canonical paths for every edge of an M_tk kernel over its space.

    Each edge x -> y gets the path ``canonical_path`` builds and the mass
    of the kernel's move.  A path's swap positions depend only on the
    class word of x and the move, so each is built once per class word and
    applied to all the word's permutations at once through a table of
    adjacent swaps.  Every path is checked to end at the transposed state.
    """
    _mtk(kernel)
    mirrored = _mirrored(kernel)
    keys, labels = _group(kernel.classes(state) for state in space.states)
    words = [(word, members, kernel.moves(space.states[members[0]]))
             for word, members in zip(keys, _members(labels))]
    # the paths of state s take the slots start[s] .. start[s + 1] - 1, one
    # per move in the kernel's order
    counts = np.array([len(moves) for _, _, moves in words], np.int64)[labels]
    start = np.concatenate(([0], np.cumsum(counts)))
    total = int(start[-1])
    prob = np.empty(total)
    direction = np.empty(total, "U1")
    length = np.empty(total, np.int64)
    blocks = []
    for word, members, moves in words:
        for rank, mv in enumerate(moves):
            slots = start[members] + rank
            shape = _path_shape(word, mv.i, mv.j, mv.direction, mirrored)
            prob[slots] = mv.prob
            direction[slots] = mv.direction
            length[slots] = len(shape)
            blocks.append((slots, members, mv, shape))

    indptr = np.concatenate(([0], np.cumsum(length + 1)))
    states = np.empty(int(indptr[-1]), np.int32)
    y = np.empty(total, np.int64)
    swap = _swap_table(space)
    perms = np.array(space.states)
    for slots, members, mv, shape in blocks:
        at = indptr[slots]
        cur = members
        states[at] = cur
        for step, p in enumerate(shape, 1):
            cur = swap[cur, p - 1]
            states[at + step] = cur
        y[slots] = cur
        expected = perms[members]
        expected[:, [mv.i - 1, mv.j - 1]] = expected[:, [mv.j - 1, mv.i - 1]]
        wrong = np.flatnonzero((perms[cur] != expected).any(axis=1))
        if wrong.size:
            raise PropertyViolationError(
                f"path construction ended at {space.states[cur[wrong[0]]]} instead of "
                f"{tuple(int(e) for e in expected[wrong[0]])}")
    return PathFamily(x=np.repeat(np.arange(len(space)), counts), y=y, prob=prob,
                      direction=direction, length=length, indptr=indptr, states=states)


@dataclass(frozen=True)
class CongestionReport:
    """Per-edge path loads and the comparison constant they imply."""

    constant: float  # the congestion constant A
    argmax_edge: tuple
    max_path_count: int  # largest number of paths through one edge
    max_path_len: int
    n_paths: int


def congestion(nn_matrix: sp.spmatrix | np.ndarray, paths: PathFamily,
               pi: np.ndarray, space: StateSpace) -> CongestionReport:
    """Congestion of a path family over the adjacent-transposition edges.

    For each directed edge (z, w) of the nearest-neighbor chain the load
    is sum over paths through it of |path| pi(x) P'(x, y); the constant is
    the maximum load divided by pi(z) P(z, w).  Loads are summed in path
    order and edges are ranked by first use, so the largest load that ties
    goes to the edge used first, and a step off the chain is reported at
    its first use.  A step from a state whose pi is not positive is
    refused (``PropertyViolationError``): its load ratio is undefined.
    """
    nn_matrix = sp.csr_matrix(nn_matrix)
    if not len(paths):
        return CongestionReport(constant=0.0, argmax_edge=None, max_path_count=0,
                                max_path_len=0, n_paths=0)
    # consecutive entries of ``states`` are a step unless they straddle two paths
    step = np.ones(len(paths.states) - 1, bool)
    step[paths.indptr[1:-1] - 1] = False
    size = len(space)
    keys = paths.states[:-1][step].astype(np.int64) * size + paths.states[1:][step]
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first_use = np.argsort(first)
    rank = np.empty_like(by_first_use)
    rank[by_first_use] = np.arange(len(by_first_use))
    edge = rank[inverse]
    contribution = paths.length * pi[paths.x] * paths.prob
    loads = np.bincount(edge, weights=np.repeat(contribution, paths.length))
    counts = np.bincount(edge)
    z, w = np.divmod(distinct[by_first_use], size)
    rates = np.asarray(nn_matrix[z, w]).ravel()
    bad = np.flatnonzero(rates <= 0)
    if bad.size:
        raise PropertyViolationError(
            f"path step {space.states[z[bad[0]]]} -> {space.states[w[bad[0]]]} is not a "
            "nearest-neighbor edge"
        )
    # a mass the solver could not resolve would make the load ratio 0/0
    bad = np.flatnonzero(~(pi[z] > 0))
    if bad.size:
        raise PropertyViolationError(
            f"stationary mass {pi[z[bad[0]]]} of {space.states[z[bad[0]]]}, where a path "
            "step starts, is not positive")
    values = loads / (pi[z] * rates)
    k = int(np.argmax(values))
    best, best_edge = 0.0, None
    if values[k] > best:
        best = float(values[k])
        best_edge = (space.states[z[k]], space.states[w[k]])
    return CongestionReport(constant=best, argmax_edge=best_edge,
                            max_path_count=int(counts.max()),
                            max_path_len=int(paths.length.max()), n_paths=len(paths))


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
    sizes = tuple(parse_int(s, "a size", low=1) for s in sizes)
    values = tuple(float(v) for v in values)
    if len(set(sizes)) < 3:
        raise ValidationError(f"a scaling fit needs at least 3 distinct sizes, got {sizes}")
    if len(sizes) != len(values):
        raise ValidationError("sizes and values differ in length")
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ValidationError(f"a log-log fit needs finite positive values, got {values}")
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    return ScalingFit(sizes=sizes, values=values, slope=float(slope),
                      intercept=float(intercept),
                      max_residual=float(np.abs(residuals).max()))


def scaling_values(family, sizes, eps: float | None = None,
                   budget: int = DEFAULT_BUDGET):
    """Per size, in the order given, 1/gap or, given eps, the exact tau(eps).

    ``family`` maps a size to a kernel; the kernel's natural space is
    enumerated within the budget, and must have more than one state.  A
    generator, so a caller keeps the values before a size over the budget.
    """
    for size in sizes:
        kernel = family(size)
        space = space_for_kernel(kernel, budget=budget)
        if len(space) == 1:  # gap 1 by spectral_gap's convention, not a relaxation time
            raise ValidationError(f"scaling size {size} has a one-state space")
        matrix = build_csr(kernel, space)
        if eps is None:
            yield 1.0 / spectral_gap(matrix)
        else:
            yield mixing_time_exact(matrix, stationary_exact(matrix), eps)


def gap_scaling(family, sizes, budget: int = DEFAULT_BUDGET) -> ScalingFit:
    """Log-log slope of the relaxation time 1/gap across sizes."""
    if len(set(sizes)) < len(sizes):
        raise ValidationError(f"scaling sizes must not repeat, got {list(sizes)}")
    return fit_loglog(sizes, list(scaling_values(family, sizes, budget=budget)))


def fill_spot_check(n: int, count: int, seed: int, budget: int = DEFAULT_BUDGET):
    """Gap of seeded random monotone positively biased sets vs the uniform gap.

    Returns (violations, gaps, uniform_gap) where violations lists the
    seed indices whose gap fell below the uniform chain's gap.  The n!
    permutations are enumerated within the budget.
    """
    count = parse_int(count, "count", low=1)
    seed = parse_int(seed, "seed", low=0)
    space = enumerate_states("permutations", n=n, budget=budget)
    n = len(space.states[0])
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
