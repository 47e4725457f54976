"""Directed-network topology as a one-dimensional chain complex.

A network is a set of labelled nodes plus directed branches between
them.  Treating branches as the basis of a free abelian group, the
boundary operator sends a branch to (end node) - (start node); its
matrix is the node-by-branch incidence matrix with entries in
{-1, 0, +1}.  Two consequences carried through this module:

* a vector of branch currents satisfies Kirchhoff's current law exactly
  when it lies in the kernel of the boundary matrix, and
* the kernel (the cycle space) has dimension B - N + C for B branches,
  N nodes and C connected components, with an integer basis.

The basis comes from a spanning forest grown in branch order (Paton
1969, CACM 12(9)): each branch outside the forest closes one
fundamental cycle, with coefficients in {-1, 0, +1}.  The forest's
branches are the pivot columns of the incidence matrix's row-echelon
form, so this is the basis exact elimination gives, vector for vector.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .errors import TopologyError


@dataclass(frozen=True)
class Branch:
    """Directed branch from ``start`` node to ``end`` node.

    ``element`` is an optional payload (circuit element, weight, ...);
    topology code never inspects it.
    """

    id: str
    start: str
    end: str
    element: Any = None

    def __post_init__(self) -> None:
        if not self.id:
            raise TopologyError("branch id must be a non-empty string")
        if not self.start or not self.end:
            raise TopologyError(f"branch {self.id!r}: node labels must be non-empty")


@dataclass(frozen=True)
class Network:
    """Immutable directed network with optional reference (ground) node."""

    nodes: tuple[str, ...]
    branches: tuple[Branch, ...]
    reference: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "branches", tuple(self.branches))
        if len(set(self.nodes)) != len(self.nodes):
            raise TopologyError("duplicate node labels")
        node_set = set(self.nodes)
        seen: set[str] = set()
        for br in self.branches:
            if br.id in seen:
                raise TopologyError(f"duplicate branch id {br.id!r}")
            seen.add(br.id)
            for label in (br.start, br.end):
                if label not in node_set:
                    raise TopologyError(
                        f"branch {br.id!r} references unknown node {label!r}")
        if self.reference is not None and self.reference not in node_set:
            raise TopologyError(f"reference node {self.reference!r} not in network")

    @classmethod
    def from_branches(cls, branches: Iterable[Branch],
                      reference: str | None = None,
                      extra_nodes: Iterable[str] = ()) -> "Network":
        """Build a network whose node list is collected from the branches.

        Nodes appear in first-use order; ``extra_nodes`` allows isolated
        nodes (they raise in the constructor otherwise, since they never
        occur in a branch).
        """
        branches = tuple(branches)
        nodes = dict.fromkeys([*extra_nodes, *(label for br in branches
                                               for label in (br.start, br.end))])
        return cls(tuple(nodes), branches, reference)

    @cached_property
    def branch_ids(self) -> tuple[str, ...]:
        return tuple(br.id for br in self.branches)

    @cached_property
    def _ends(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Index in ``nodes`` of every branch's start and of its end, in
        branch order: the form the topology algorithms run on."""
        index = {label: k for k, label in enumerate(self.nodes)}
        return (tuple(index[br.start] for br in self.branches),
                tuple(index[br.end] for br in self.branches))

    def branch(self, branch_id: str) -> Branch:
        for br in self.branches:
            if br.id == branch_id:
                return br
        raise TopologyError(f"unknown branch {branch_id!r}")


@dataclass(frozen=True)
class CycleBasis:
    """Integer basis of the kernel of a boundary matrix.

    ``vectors[k][j]`` is the coefficient of the network's branch j in
    the k-th basis cycle.  Each vector is primitive (gcd 1) with its
    first non-zero entry positive.
    """

    vectors: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def boundary(net: Network) -> np.ndarray:
    """Incidence matrix of ``net``: column of branch b is e(end) - e(start).

    Read-only int64, one row per node of ``net.nodes`` and one column per
    branch of ``net.branches``, in their order.

    A self-loop contributes a zero column (it bounds nothing), which is
    exactly what makes its current free in the kernel.
    """
    mat = np.zeros((len(net.nodes), len(net.branches)), dtype=np.int64)
    for j, (start, end) in enumerate(zip(*net._ends)):
        mat[end, j] += 1
        mat[start, j] -= 1
    mat.setflags(write=False)
    return mat


def _spanning_forest(net: Network) -> tuple[list[int], Callable[[int], int]]:
    """Spanning forest grown by one union-find pass in branch order.

    Returns the indices of the forest's branches (each joins two trees
    grown so far) and the ``find`` that maps a node index to the index
    of its tree's root.
    """
    parent = list(range(len(net.nodes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = []
    for k, (start, end) in enumerate(zip(*net._ends)):
        ra, rb = find(start), find(end)
        if ra != rb:
            parent[ra] = rb
            forest.append(k)
    return forest, find


def connected_components(net: Network) -> list[frozenset[str]]:
    """Connected components of the underlying undirected graph."""
    _, find = _spanning_forest(net)
    groups: dict[int, set[str]] = {}
    for k, label in enumerate(net.nodes):
        groups.setdefault(find(k), set()).add(label)
    return [frozenset(g) for g in groups.values()]


def cycle_space(net: Network) -> CycleBasis:
    """Exact integer basis of the cycle space (kernel of the boundary map).

    One vector per branch outside the spanning forest, in branch order:
    that branch plus the forest path from its end back to its start,
    signed so that the first non-zero entry is positive.  The returned
    dimension always equals
    ``len(net.branches) - len(net.nodes) + len(connected_components(net))``.
    """
    starts, ends = net._ends
    forest, _ = _spanning_forest(net)
    # Root each tree; up[v] = (parent node, branch, coefficient of that
    # branch when walked from v to its parent), for node indices v.
    adjacent: list[list[tuple[int, int, int]]] = [[] for _ in net.nodes]
    for k in forest:
        adjacent[starts[k]].append((ends[k], k, -1))
        adjacent[ends[k]].append((starts[k], k, 1))
    up: list[tuple[int, int, int]] = [(-1, -1, 0)] * len(net.nodes)
    depth = [-1] * len(net.nodes)
    for root in range(len(net.nodes)):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, k, coef in adjacent[v]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    up[w] = (v, k, coef)
                    stack.append(w)

    in_forest = set(forest)
    n_branches = len(starts)
    vectors = []
    for f in range(n_branches):
        if f in in_forest:
            continue
        vec = [0] * n_branches
        vec[f] = 1
        # Climb from both ends to where the two paths meet: a's steps
        # run along the cycle, b's against it.  The entry of the lowest
        # branch index reached is the first non-zero one.
        lead = f
        a, b = ends[f], starts[f]
        while a != b:
            if depth[a] >= depth[b]:
                a, k, coef = up[a]
                vec[k] = coef
            else:
                b, k, coef = up[b]
                vec[k] = -coef
            if k < lead:
                lead = k
        if vec[lead] < 0:
            vec = [-v for v in vec]
        vectors.append(tuple(vec))
    return CycleBasis(tuple(vectors))


def cycle_rank(net: Network) -> int:
    """Cycle-space dimension from counting: B - N + C."""
    return len(net.branches) - len(net.nodes) + len(connected_components(net))


def _currents_vector(net: Network,
                     currents: Mapping[str, Any] | Sequence[Any]) -> list[Any]:
    if isinstance(currents, Mapping):
        ids = net.branch_ids
        # Tested with ``in`` before it is read, so that a mapping with a
        # default (``defaultdict``) never fills in a missing branch.
        vec = [currents[b] for b in ids if b in currents]
        if len(vec) != len(ids):
            missing = [b for b in ids if b not in currents]
            raise TopologyError(f"missing currents for branches {missing}")
        # Every branch has a current, so only a longer mapping has extras.
        if len(currents) != len(ids):
            extra = set(currents) - set(ids)
            raise TopologyError(f"currents given for unknown branches {sorted(extra)}")
        return vec
    vec = list(currents)
    if len(vec) != len(net.branches):
        raise TopologyError(
            f"expected {len(net.branches)} branch currents, got {len(vec)}")
    return vec


def kcl_residual(net: Network,
                 currents: Mapping[str, Any] | Sequence[Any]) -> dict[str, Any]:
    """Net current into each node: (boundary matrix) @ (branch currents).

    ``currents`` is either a mapping keyed by branch id or a sequence
    aligned with ``net.branches``.  Arithmetic stays in the input type,
    so exact types (int, Fraction) give exact residuals.  A current
    vector satisfies KCL iff every residual is zero, i.e. iff it lies in
    the kernel of :func:`boundary`.
    """
    vec = _currents_vector(net, currents)
    residual: list[Any] = [0] * len(net.nodes)
    for start, end, cur in zip(*net._ends, vec):
        residual[end] = residual[end] + cur
        residual[start] = residual[start] - cur
    return dict(zip(net.nodes, residual))


def in_cycle_space(net: Network,
                   currents: Mapping[str, Any] | Sequence[Any]) -> bool:
    """True iff the branch-current vector satisfies KCL at every node."""
    return all(v == 0 for v in kcl_residual(net, currents).values())
