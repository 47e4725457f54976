"""Chain-complex topology: incidence matrices, cycle spaces, current law."""

from fractions import Fraction

import numpy as np
import pytest

from pulsenet import (Branch, Network, TopologyError, boundary,
                      connected_components, cycle_rank, cycle_space,
                      in_cycle_space, kcl_residual)
from conftest import random_network


def triangle():
    return Network.from_branches([
        Branch("e1", "a", "b"),
        Branch("e2", "b", "c"),
        Branch("e3", "c", "a"),
    ])


def test_boundary_entries_and_column_sums():
    bmat = boundary(triangle())
    assert bmat.matrix.shape == (3, 3)
    assert set(np.unique(bmat.matrix)) <= {-1, 0, 1}
    assert np.all(bmat.matrix.sum(axis=0) == 0)
    col = bmat.column("e1")
    assert col[bmat.nodes.index("a")] == -1
    assert col[bmat.nodes.index("b")] == 1


def test_triangle_cycle_basis_is_the_loop():
    basis = cycle_space(triangle())
    assert basis.dim == 1
    assert basis.vectors == ((1, 1, 1),)


def test_opposed_orientation_flips_sign():
    net = Network.from_branches([
        Branch("e1", "a", "b"),
        Branch("e2", "b", "c"),
        Branch("e3", "a", "c"),  # reversed against the loop direction
    ])
    basis = cycle_space(net)
    assert basis.vectors == ((1, 1, -1),)


def test_parallel_branches_form_a_cycle():
    net = Network.from_branches([
        Branch("p1", "a", "b"),
        Branch("p2", "a", "b"),
    ])
    assert cycle_space(net).vectors == ((1, -1),)


def test_self_loop_gives_zero_column_and_free_current():
    net = Network.from_branches([
        Branch("loop", "a", "a"),
        Branch("e", "a", "b"),
    ])
    bmat = boundary(net)
    assert np.all(bmat.column("loop") == 0)
    basis = cycle_space(net)
    assert basis.dim == 1
    assert basis.vectors == ((1, 0),)
    assert in_cycle_space(net, {"loop": 7, "e": 0})


def test_tree_has_empty_cycle_space():
    net = Network.from_branches([
        Branch("t1", "r", "a"),
        Branch("t2", "r", "b"),
        Branch("t3", "b", "c"),
    ])
    assert cycle_space(net).dim == 0
    assert cycle_rank(net) == 0


def test_disjoint_components_count():
    net = Network.from_branches(
        [Branch("x1", "a", "b"), Branch("x2", "b", "a"),
         Branch("y1", "p", "q"), Branch("y2", "q", "r"), Branch("y3", "r", "p")],
        extra_nodes=["lonely"])
    comps = connected_components(net)
    assert len(comps) == 3
    assert frozenset({"lonely"}) in comps
    assert cycle_space(net).dim == 5 - 6 + 3 == cycle_rank(net)


def test_random_networks_rank_and_kernel_exact():
    rng = np.random.default_rng(42)
    for _ in range(200):
        net = random_network(rng)
        bmat = boundary(net)
        assert np.all(bmat.matrix.sum(axis=0) == 0)
        basis = cycle_space(net)
        assert basis.dim == cycle_rank(net)
        for vec in basis.vectors:
            # exact integer arithmetic end to end
            residual = kcl_residual(net, dict(zip(net.branch_ids, vec)))
            assert all(v == 0 for v in residual.values())


def test_cycle_basis_spans_the_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(7)
    for _ in range(25):
        net = random_network(rng, max_nodes=8, max_branches=14)
        ours = cycle_space(net)
        mat = sympy.Matrix(boundary(net).matrix.tolist())
        null = mat.nullspace()
        assert ours.dim == len(null)
        if not null:
            continue
        # stacking our vectors onto sympy's basis must not raise the rank
        stacked = sympy.Matrix([list(v) for v in ours.vectors]
                               + [list(v.T) for v in null])
        assert stacked.rank() == len(null)


def test_cycle_basis_is_the_sign_normalised_sympy_nullspace():
    # sympy's nullspace sets one free column of the reduced row-echelon
    # form to 1 per vector; the spanning forest must give that basis
    # exactly, vector for vector, once each lead entry is made positive.
    sympy = pytest.importorskip("sympy")
    for seed in (7, 42, 3):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            net = random_network(rng)
            null = []
            for v in sympy.Matrix(boundary(net).matrix.tolist()).nullspace():
                vec = list(v)
                if next(x for x in vec if x != 0) < 0:
                    vec = [-x for x in vec]
                null.append(tuple(vec))
            assert cycle_space(net).vectors == tuple(null)


def test_basis_vectors_are_primitive_with_positive_lead():
    rng = np.random.default_rng(3)
    from math import gcd
    for _ in range(50):
        net = random_network(rng, max_nodes=10, max_branches=20)
        for vec in cycle_space(net).vectors:
            nonzero = [v for v in vec if v]
            assert nonzero[0] > 0
            assert gcd(*(abs(v) for v in nonzero)) == 1


def test_kcl_residual_is_type_preserving():
    net = triangle()
    currents = {"e1": Fraction(1, 3), "e2": Fraction(1, 3), "e3": Fraction(1, 3)}
    residual = kcl_residual(net, currents)
    assert all(isinstance(v, Fraction) and v == 0 for v in residual.values())
    bent = dict(currents, e2=Fraction(1, 2))
    residual = kcl_residual(net, bent)
    # e1 flows into b, the enlarged e2 drains it; the reverse at c
    assert residual["b"] == Fraction(1, 3) - Fraction(1, 2)
    assert residual["c"] == Fraction(1, 2) - Fraction(1, 3)
    assert not in_cycle_space(net, bent)


def test_kcl_residual_accepts_sequences():
    net = triangle()
    assert in_cycle_space(net, [2, 2, 2])
    with pytest.raises(TopologyError, match="expected 3"):
        kcl_residual(net, [1, 2])


def test_kcl_residual_names_missing_and_unknown_branches():
    net = triangle()
    with pytest.raises(TopologyError, match="missing currents.*e3"):
        kcl_residual(net, {"e1": 1, "e2": 1})
    with pytest.raises(TopologyError, match="unknown branches.*bogus"):
        kcl_residual(net, {"e1": 1, "e2": 1, "e3": 1, "bogus": 1})


def test_network_validation():
    with pytest.raises(TopologyError, match="duplicate branch id"):
        Network.from_branches([Branch("e", "a", "b"), Branch("e", "b", "a")])
    with pytest.raises(TopologyError, match="unknown node"):
        Network(("a",), (Branch("e", "a", "b"),))
    with pytest.raises(TopologyError, match="reference node"):
        Network.from_branches([Branch("e", "a", "b")], reference="zz")
    with pytest.raises(TopologyError, match="non-empty"):
        Branch("", "a", "b")
