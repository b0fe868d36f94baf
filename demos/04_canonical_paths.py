"""Canonical paths: realizing long transpositions by adjacent swaps.

Each move of the class-transposition chain is routed through a designated
sequence of adjacent transpositions whose intermediate states never drop
below the weight of the endpoints.  ``canonical_path`` builds one edge's
route; ``collect_canonical_paths`` builds every edge's as one family of
index arrays.  The resulting edge congestion yields
a comparison constant that transfers mixing bounds between the chains.
"""

from biasedperm import (
    AdjacentTranspositionChain,
    ClassPartition,
    ClassTranspositionChain,
    KClassParams,
    build_kclass,
    build_matrix,
    canonical_path,
    collect_canonical_paths,
    comparison_bound,
    congestion,
    enumerate_states,
    log_weight,
    mixing_time_exact,
    project,
    stationary_exact,
    transpose,
)

partition = ClassPartition.from_sizes((2, 1, 2))
prob_set = build_kclass(KClassParams(
    partition, {(1, 2): 0.7, (1, 3): 0.8, (2, 3): 0.75}))
mtk = ClassTranspositionChain(prob_set, partition)

# a same-class exchange across the whole word: the two class-1 elements sit
# at the ends with larger-class elements between them
x = (1, 3, 4, 5, 2)
print("word of x:", project(x, partition))
y = transpose(x, 1, 5)
path = canonical_path(mtk, x, y, "N")
print(f"canonical path for the class-1 exchange, {path.length} swaps:")
floor = min(log_weight(x, prob_set), log_weight(y, prob_set))
for state in path.states:
    marker = "*" if log_weight(state, prob_set) >= floor else "!"
    print(f"  {state}  word {project(state, partition)} {marker}")

# every edge of the richer chain at n = 5, as one family of index arrays;
# path k visits the states family.states[family.indptr[k]:family.indptr[k + 1]]
space = enumerate_states("permutations", n=5)
family = collect_canonical_paths(mtk, space)
for direction in "LRN":
    lengths = family.length[family.direction == direction]
    print(f"{direction} edges: {len(lengths)} paths, longest {lengths.max()}")
k = next(k for k in range(len(family))
         if (family.x[k], family.y[k]) == (space.index[x], space.index[y]))
visits = family.states[family.indptr[k]:family.indptr[k + 1]]
assert tuple(space.states[s] for s in visits) == path.states
print(f"the family's path {k} is the class-1 exchange above")

nn = build_matrix(AdjacentTranspositionChain(prob_set), space)
pi = stationary_exact(nn)
report = congestion(nn, family, pi, space)
print(f"\n{report.n_paths} paths; longest {report.max_path_len} "
      f"(4n = 20); busiest edge carries {report.max_path_count} paths")
print(f"congestion constant A = {report.constant:.3f}")

tau_nn = mixing_time_exact(nn, pi, 0.25)
bound = comparison_bound(report.constant, float(pi.min()), tau_prime=50, eps=0.25)
print(f"exact adjacent-chain mixing time {tau_nn}; a transferred bound from "
      f"tau'=50 would be {bound:.0f}")
