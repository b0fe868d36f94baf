"""Ordered league trees and the permutation <-> tree-strings bijection.

A league tree is an ordered tree whose leaves are 1..n sorted left to
right.  The children of an internal node v are labeled 1..deg(v) by their
position, and v carries one probability q[(a, b)] in (1/2, 1) for every
child pair a < b.  The pairwise probability of two elements is the q value
at their lowest common ancestor, indexed by the two child branches the
elements descend through.  Each internal node stores its leaf set and the
child label every leaf below it descends through, so the lowest common
ancestor is found by walking down from the root until two leaves part.

The tree-strings representation records, for each internal node, the order
in which the permutation visits the node's leaf descendants, written as
child labels: an ordering of the node's branch labels, one per leaf below
it.  Jointly over all internal nodes this is a bijection with
permutations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .model import (ProbabilitySet, _check_cross_class, _pairwise, _parse_pair_key,
                    parse_probability)
from .permcore import check_ordering


@dataclass
class TreeNode:
    name: str
    children: list  # TreeNode or int (leaf label)
    q: dict  # (a, b) 1-based child labels, a < b -> float in (1/2, 1)
    # filled in by LeagueTree: the leaf descendants, and the child label each
    # one descends through
    leaves: frozenset = field(default=frozenset(), init=False, repr=False)
    branch: dict = field(default_factory=dict, init=False, repr=False)


class LeagueTree:
    """Parsed, validated, contraction-normalized league tree."""

    def __init__(self, root: TreeNode):
        self.root = root
        self.internal_nodes: list[TreeNode] = []
        self._collect(root)
        n = len(root.leaves)
        if root.leaves != frozenset(range(1, n + 1)):
            raise ValidationError(f"leaves must be exactly 1..n, got {sorted(root.leaves)}")
        self.n = n
        names = [v.name for v in self.internal_nodes]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate internal node names in {names}")
        self.nodes_by_name = {v.name: v for v in self.internal_nodes}
        # sorted left-to-right <=> each node's child leaf ranges are increasing
        for v in self.internal_nodes:
            flat = sorted(v.leaves, key=lambda x: (v.branch[x], x))
            if flat != sorted(flat):
                raise ValidationError(
                    f"leaves under node {v.name!r} are not sorted left to right"
                )

    def _collect(self, node: TreeNode):
        """Record the internal nodes in preorder and fill in their leaf maps."""
        self.internal_nodes.append(node)
        node.branch = {}
        for label, child in enumerate(node.children, start=1):
            if isinstance(child, TreeNode):
                self._collect(child)
                leaves = child.leaves
            else:
                leaves = (child,)
            for x in leaves:
                if x in node.branch:
                    raise ValidationError(
                        f"leaf {x} appears twice under node {node.name!r}")
                node.branch[x] = label
        node.leaves = frozenset(node.branch)

    def lca(self, i: int, j: int) -> tuple[TreeNode, int, int]:
        """Lowest common ancestor of leaves i != j and their child branches."""
        if i == j:
            raise ValidationError("lca needs two distinct leaves")
        # walk down from the root while both leaves take the same branch
        node = self.root
        while node.branch[i] == node.branch[j]:
            node = node.children[node.branch[i] - 1]
        return node, node.branch[i], node.branch[j]


def parse_tree(obj) -> LeagueTree:
    """Parse the JSON tree form into a validated LeagueTree.

    Format: {"node": "A", "children": [{...}, 4, {...}, 7],
             "q": {"(1,2)": "0.6", ...}} with leaves as bare integers and
    probabilities as decimal strings.  Unary internal nodes are accepted
    and contracted away; they may not carry q values.
    """
    root = _parse_node(obj)
    if not isinstance(root, TreeNode):
        raise ValidationError("tree must have at least one internal node")
    return LeagueTree(root)


def _parse_node(obj):
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    if not isinstance(obj, dict):
        raise ValidationError(f"tree node must be an object or a leaf integer, got {obj!r}")
    extra = set(obj) - {"node", "children", "q"}
    if extra:
        raise ValidationError(f"unknown tree node fields: {sorted(extra)}")
    name = obj.get("node")
    if not isinstance(name, str) or not name:
        raise ValidationError("internal tree nodes need a nonempty \"node\" name")
    children_raw = obj.get("children")
    if not isinstance(children_raw, list) or not children_raw:
        raise ValidationError(f"node {name!r} needs a nonempty children list")
    children = [_parse_node(c) for c in children_raw]
    q_raw = obj.get("q", {})
    if len(children) == 1:
        if q_raw:
            raise ValidationError(f"unary node {name!r} may not carry q values")
        return children[0]  # contraction
    if not isinstance(q_raw, dict):
        raise ValidationError(f"node {name!r}: q must be an object of pair keys")
    deg = len(children)
    wanted = {(a, b) for a in range(1, deg + 1) for b in range(a + 1, deg + 1)}
    q = {}
    for key, val in q_raw.items():
        pair = _parse_pair_key(key)
        if pair not in wanted:
            raise ValidationError(f"node {name!r}: q key {key!r} is not a child pair")
        what = f"node {name!r}: q{pair}"
        q[pair] = _check_cross_class(parse_probability(val, what), what)
    if set(q) != wanted:
        raise ValidationError(
            f"node {name!r} of degree {deg} needs q for the pairs {sorted(wanted)}"
        )
    return TreeNode(name=name, children=children, q=q)


def induced_probabilities(tree: LeagueTree) -> ProbabilitySet:
    """Pairwise matrix with p[i][j] = q at the lowest common ancestor of i, j.

    Leaves are sorted left to right, so for i < j the branch a of i is left
    of the branch b of j and q[(a, b)] is the entry.
    """
    n = tree.n
    lcas = ((i, j, tree.lca(i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return _pairwise(n, ((i, j, node.q[(a, b)]) for i, j, (node, a, b) in lcas))


def permutation_to_tree_strings(sigma, tree: LeagueTree) -> dict[str, tuple[int, ...]]:
    """Per-node child-label strings read off in permutation order."""
    sigma = check_ordering(sigma, list(range(1, tree.n + 1)), f"a permutation of 1..{tree.n}")
    return {v.name: tuple(v.branch[x] for x in sigma if x in v.leaves)
            for v in tree.internal_nodes}


def tree_strings_to_permutation(strings: dict, tree: LeagueTree) -> tuple:
    """Reconstruct the permutation by bottom-up interleaving.

    Each node's tree string must order its branch labels
    (:func:`biasedperm.permcore.check_ordering`); the node merges its
    children's permutation strings in that relative order, preserving
    within-child order, and the root's merged string is the permutation.
    """
    def merge(node) -> tuple:
        if isinstance(node, int):
            return (node,)
        children = [iter(merge(c)) for c in node.children]
        s = strings.get(node.name)
        if s is None:
            raise ValidationError(f"missing tree string for node {node.name!r}")
        labels = sorted(node.branch.values())
        s = check_ordering(s, labels, f"an ordering of the branch labels {tuple(labels)} "
                                      f"of node {node.name!r}")
        return tuple(next(children[label - 1]) for label in s)

    return merge(tree.root)
