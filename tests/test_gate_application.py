"""Gate application against the dense embedding oracle.

The monodromy and the factorizer are applied to blocks of vectors 4x4 gate
by 4x4 gate; here each is compared with the product of dense
``embed_two_site`` matrices it replaces.
"""

import numpy as np
import pytest

from sixvertex import f_basis as fb
from sixvertex import tensor_core as tc
from sixvertex import vertex_model as vm

from conftest import make_lattice
from dense_routes import (
    assert_close_to_dense,
    dense_factorizer,
    dense_tail,
    identity_operator,
    tail_columns,
)

LENGTHS = range(1, 7)


def dense_monodromy(t, lattice, regime):
    """S(1, aux)⋯S(L, aux) as a product of dense embeddings."""
    aux = lattice.length + 1
    dense = identity_operator(aux)
    for i, x in enumerate(lattice.xi, start=1):
        dense = dense @ tc.embed_two_site(vm.s_matrix(x, t, regime), i, aux, aux)
    return dense


@pytest.mark.parametrize("L", LENGTHS)
def test_monodromy_matches_dense_product(L, regime):
    lattice = make_lattice(L, regime, seed=200 + L)
    t = vm.random_spectral_point(lattice, regime, np.random.default_rng(210 + L))
    got = vm.monodromy_matrix(t, lattice, regime, identity_operator(L + 1))
    assert_close_to_dense(got, dense_monodromy(t, lattice, regime))


@pytest.mark.parametrize("L", LENGTHS)
def test_block_route_matches_dense_product(L, regime):
    # a random complex block, not symmetric: a missing transpose fails
    lattice = make_lattice(L, regime, seed=200 + L)
    rng = np.random.default_rng(280 + L)
    t = vm.random_spectral_point(lattice, regime, rng)
    block = rng.normal(size=(1 << L, 3)) + 1j * rng.normal(size=(1 << L, 3))
    dense = dense_monodromy(t, lattice, regime)
    want = {
        "a": dense[1::2, 1::2] @ block,
        "b": dense[0::2, 1::2] @ block,
        "c": dense[1::2, 0::2] @ block,
        "d": dense[0::2, 0::2] @ block,
    }
    ent = vm.monodromy_entries(t, lattice, regime, block)
    for name, value in want.items():
        assert_close_to_dense(getattr(ent, name), value)
    assert_close_to_dense(vm.transfer_matrix(t, lattice, regime, block), want["a"] + want["d"])


@pytest.mark.parametrize("L", LENGTHS)
def test_tail_products_match_dense_products(L, regime):
    # each site's tail, as it acts inside F built on the identity
    lattice = make_lattice(L, regime, seed=220 + L)
    order = tuple(range(1, L + 1))
    f = fb.apply_factorizer(order, identity_operator(L), lattice, regime)
    for site in order:
        got, before_tail = tail_columns(f, site)
        assert_close_to_dense(got, dense_tail(order, site - 1, lattice, regime) @ before_tail)


@pytest.mark.parametrize("L", LENGTHS)
def test_factorizer_matches_dense_product(L, regime):
    lattice = make_lattice(L, regime, seed=230 + L)
    orders = [tuple(range(1, L + 1))]
    if L > 1:
        # sites 1 and 2 swapped, as the factorization identity needs it
        orders.append((2, 1) + orders[0][2:])
    for order in orders:
        dense = dense_factorizer(order, lattice, regime)
        got = fb.apply_factorizer(order, identity_operator(L), lattice, regime)
        assert_close_to_dense(got, dense)


@pytest.mark.parametrize("L", LENGTHS)
def test_apply_factorizer_matches_dense_product(L, regime):
    # F and every adjacent-swap factorizer applied to the probe block, each
    # against the dense product of its factors times the block
    lattice = make_lattice(L, regime, seed=260 + L)
    block = fb.probe_block(L)
    identity_order = tuple(range(1, L + 1))
    orders = [identity_order]
    for site in range(1, L):
        swapped = list(identity_order)
        swapped[site - 1], swapped[site] = swapped[site], swapped[site - 1]
        orders.append(tuple(swapped))
    for order in orders:
        dense = dense_factorizer(order, lattice, regime) @ block
        assert_close_to_dense(fb.apply_factorizer(order, block, lattice, regime), dense)


def test_left_gate_application_matches_dense_product():
    # a generic gate, not symmetric: the S-matrix would not catch a missing
    # transpose
    L = 4
    rng = np.random.default_rng(270)
    gate = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    block = fb.probe_block(L)
    for i in range(1, L + 1):
        for j in range(1, L + 1):
            if i != j:
                dense = tc.embed_two_site(gate, i, j, L) @ block
                assert_close_to_dense(tc.apply_two_site_left(block, gate, i, j, L), dense)


def test_probe_block_is_fixed():
    block = fb.probe_block(3)
    assert block.shape == (8, fb.PROBES) and np.array_equal(block, fb.probe_block(3))
    assert np.all(block.imag != 0)


@pytest.mark.parametrize("L", [n for n in LENGTHS if n > 1])
def test_apply_two_site_matches_dense_product(L):
    # a generic gate, not particle conserving or symmetric: every entry of
    # the gate counts, and a transposed gate fails
    rng = np.random.default_rng(240 + L)
    dim = 1 << L
    gate = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for columns in (1, 3, dim):
        block = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
        for i in range(1, L + 1):
            for j in range(1, L + 1):
                if i != j:
                    dense = tc.embed_two_site(gate, i, j, L) @ block
                    assert_close_to_dense(tc.apply_two_site_left(block, gate, i, j, L), dense)


def test_apply_two_site_rejects_bad_arguments():
    block = identity_operator(3)
    with pytest.raises(ValueError):
        tc.apply_two_site_left(block, np.eye(4), 2, 2, 3)
    with pytest.raises(ValueError):
        tc.apply_two_site_left(block, np.eye(4), 1, 4, 3)
    with pytest.raises(ValueError):
        tc.apply_two_site_left(block, np.eye(2), 1, 2, 3)
    with pytest.raises(ValueError):
        tc.apply_two_site_left(identity_operator(2), np.eye(4), 1, 2, 3)
    # only the dense embedding takes a stack of gates
    with pytest.raises(ValueError, match="gate must be 4x4"):
        tc.apply_two_site_left(block, np.stack([np.eye(4)] * 2), 1, 2, 3)


def test_hot_path_builds_no_dense_embedding(monkeypatch, regime):
    calls = []
    embed = tc.embed_two_site

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return embed(*args, **kwargs)

    for module in (tc, vm, fb):
        monkeypatch.setattr(module, "embed_two_site", counted)
    L = 6
    lattice = make_lattice(L, regime, seed=250)
    vm.monodromy_matrix(0.3 + 0.1j, lattice, regime, identity_operator(L + 1))
    fb.factorizing_operator(lattice, regime)
    assert calls == []
