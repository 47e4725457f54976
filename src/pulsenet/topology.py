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

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

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
        nodes: list[str] = []
        seen: set[str] = set()
        for label in extra_nodes:
            if label not in seen:
                seen.add(label)
                nodes.append(label)
        for br in branches:
            for label in (br.start, br.end):
                if label not in seen:
                    seen.add(label)
                    nodes.append(label)
        return cls(tuple(nodes), branches, reference)

    @cached_property
    def branch_ids(self) -> tuple[str, ...]:
        return tuple(br.id for br in self.branches)

    def branch(self, branch_id: str) -> Branch:
        for br in self.branches:
            if br.id == branch_id:
                return br
        raise TopologyError(f"unknown branch {branch_id!r}")


@dataclass(frozen=True)
class BoundaryMatrix:
    """Node-by-branch incidence matrix of a network (entries -1, 0, +1)."""

    nodes: tuple[str, ...]
    branch_ids: tuple[str, ...]
    matrix: np.ndarray  # int64, shape (len(nodes), len(branch_ids)), read-only

    def column(self, branch_id: str) -> np.ndarray:
        try:
            j = self.branch_ids.index(branch_id)
        except ValueError:
            raise TopologyError(f"unknown branch {branch_id!r}") from None
        return self.matrix[:, j]


@dataclass(frozen=True)
class CycleBasis:
    """Integer basis of the kernel of a boundary matrix.

    ``vectors[k][j]`` is the coefficient of branch ``branch_ids[j]`` in
    the k-th basis cycle.  Each vector is primitive (gcd 1) with its
    first non-zero entry positive.
    """

    branch_ids: tuple[str, ...]
    vectors: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def boundary(net: Network) -> BoundaryMatrix:
    """Incidence matrix of ``net``: column of branch b is e(end) - e(start).

    A self-loop contributes a zero column (it bounds nothing), which is
    exactly what makes its current free in the kernel.
    """
    mat = np.zeros((len(net.nodes), len(net.branches)), dtype=np.int64)
    index = {label: k for k, label in enumerate(net.nodes)}
    for j, br in enumerate(net.branches):
        mat[index[br.end], j] += 1
        mat[index[br.start], j] -= 1
    mat.setflags(write=False)
    return BoundaryMatrix(net.nodes, net.branch_ids, mat)


def _spanning_forest(net: Network) -> tuple[list[int], Callable[[str], str]]:
    """Spanning forest grown by one union-find pass in branch order.

    Returns the indices of the forest's branches (each joins two trees
    grown so far) and the ``find`` that maps a node to its tree's root.
    """
    parent = {label: label for label in net.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = []
    for k, br in enumerate(net.branches):
        ra, rb = find(br.start), find(br.end)
        if ra != rb:
            parent[ra] = rb
            forest.append(k)
    return forest, find


def connected_components(net: Network) -> list[frozenset[str]]:
    """Connected components of the underlying undirected graph."""
    _, find = _spanning_forest(net)
    groups: dict[str, set[str]] = {}
    for label in net.nodes:
        groups.setdefault(find(label), set()).add(label)
    return [frozenset(g) for g in groups.values()]


def cycle_space(net: Network) -> CycleBasis:
    """Exact integer basis of the cycle space (kernel of the boundary map).

    One vector per branch outside the spanning forest, in branch order:
    that branch plus the forest path from its end back to its start,
    signed so that the first non-zero entry is positive.  The returned
    dimension always equals
    ``len(net.branches) - len(net.nodes) + len(connected_components(net))``.
    """
    forest, _ = _spanning_forest(net)
    # Root each tree; up[n] = (parent node, branch, coefficient of that
    # branch when walked from n to its parent).
    adjacent: dict[str, list[tuple[str, int, int]]] = {n: [] for n in net.nodes}
    for k in forest:
        br = net.branches[k]
        adjacent[br.start].append((br.end, k, -1))
        adjacent[br.end].append((br.start, k, 1))
    up: dict[str, tuple[str, int, int]] = {}
    depth: dict[str, int] = {}
    for root in net.nodes:
        if root in depth:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            n = stack.pop()
            for m, k, coef in adjacent[n]:
                if m not in depth:
                    depth[m] = depth[n] + 1
                    up[m] = (n, k, coef)
                    stack.append(m)

    in_forest = set(forest)
    vectors = []
    for f, br in enumerate(net.branches):
        if f in in_forest:
            continue
        vec = [0] * len(net.branches)
        vec[f] = 1
        # Climb from both ends to where the two paths meet: a's steps
        # run along the cycle, b's against it.
        a, b = br.end, br.start
        while a != b:
            if depth[a] >= depth[b]:
                a, k, coef = up[a]
                vec[k] = coef
            else:
                b, k, coef = up[b]
                vec[k] = -coef
        if next(v for v in vec if v) < 0:
            vec = [-v for v in vec]
        vectors.append(tuple(vec))
    return CycleBasis(net.branch_ids, tuple(vectors))


def cycle_rank(net: Network) -> int:
    """Cycle-space dimension from counting: B - N + C."""
    return len(net.branches) - len(net.nodes) + len(connected_components(net))


def _currents_vector(net: Network,
                     currents: Mapping[str, Any] | Sequence[Any]) -> list[Any]:
    if isinstance(currents, Mapping):
        missing = [br.id for br in net.branches if br.id not in currents]
        if missing:
            raise TopologyError(f"missing currents for branches {missing}")
        # Every branch has a current, so only a longer mapping has extras.
        if len(currents) != len(net.branches):
            extra = set(currents) - set(net.branch_ids)
            raise TopologyError(f"currents given for unknown branches {sorted(extra)}")
        return [currents[br.id] for br in net.branches]
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
    residual: dict[str, Any] = {label: 0 for label in net.nodes}
    for br, cur in zip(net.branches, vec):
        residual[br.end] = residual[br.end] + cur
        residual[br.start] = residual[br.start] - cur
    return residual


def in_cycle_space(net: Network,
                   currents: Mapping[str, Any] | Sequence[Any]) -> bool:
    """True iff the branch-current vector satisfies KCL at every node."""
    return all(v == 0 for v in kcl_residual(net, currents).values())
