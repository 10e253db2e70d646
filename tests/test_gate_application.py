"""Gate application against the dense embedding oracle.

The monodromy, the tail products and the factorizer are built by applying
4x4 gates; here each is compared with the product of dense
``embed_two_site`` matrices it replaces.
"""

import numpy as np
import pytest

from sixvertex import f_basis as fb
from sixvertex import tensor_core as tc
from sixvertex import vertex_model as vm

from conftest import make_lattice

LENGTHS = range(1, 7)


def assert_close_to_dense(got, dense):
    bound = 1e-14 * max(1.0, float(np.max(np.abs(dense))))
    assert tc.max_abs_diff(got, dense) <= bound


def dense_tail(order, pos, lattice, regime):
    L, n = lattice.length, order[pos]
    out = tc.identity_operator(L)
    for later in order[pos + 1 :]:
        gate = vm.s_matrix(lattice.xi[later - 1], lattice.xi[n - 1], regime)
        out = out @ tc.embed_two_site(gate, later, n, L)
    return out


def dense_factorizer(order, lattice, regime):
    L = lattice.length
    out = tc.identity_operator(L)
    for pos, site in enumerate(order):
        number = tc.site_operator("number", site, L)
        tail = dense_tail(order, pos, lattice, regime)
        out = out @ ((tc.identity_operator(L) - number) + tail @ number)
    return out


@pytest.mark.parametrize("L", LENGTHS)
def test_monodromy_matches_dense_product(L, regime):
    lattice = make_lattice(L, regime, seed=200 + L)
    t = vm.random_spectral_point(lattice, regime, np.random.default_rng(210 + L))
    aux = L + 1
    dense = tc.identity_operator(aux)
    for i, x in enumerate(lattice.xi, start=1):
        dense = dense @ tc.embed_two_site(vm.s_matrix(x, t, regime), i, aux, aux)
    assert_close_to_dense(vm.monodromy_matrix(t, lattice, regime), dense)


@pytest.mark.parametrize("L", LENGTHS)
def test_tail_products_match_dense_products(L, regime):
    lattice = make_lattice(L, regime, seed=220 + L)
    order = tuple(range(1, L + 1))
    for site in order:
        dense = dense_tail(order, site - 1, lattice, regime)
        assert_close_to_dense(fb.s_tail_product(site, lattice, regime), dense)


@pytest.mark.parametrize("L", LENGTHS)
def test_factorizer_matches_dense_product(L, regime):
    lattice = make_lattice(L, regime, seed=230 + L)
    orders = [tuple(range(1, L + 1))]
    if L > 1:
        # sites 1 and 2 swapped, as the factorization identity needs it
        orders.append((2, 1) + orders[0][2:])
    for order in orders:
        dense = dense_factorizer(order, lattice, regime)
        assert_close_to_dense(fb._factorizer_for_order(order, lattice, regime), dense)


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
                assert_close_to_dense(fb._apply_gate_left(gate, i, j, block, L), dense)


def test_probe_block_is_fixed():
    block = fb.probe_block(3)
    assert block.shape == (8, fb.PROBES) and np.array_equal(block, fb.probe_block(3))
    assert np.all(block.imag != 0)


@pytest.mark.parametrize("L", [n for n in LENGTHS if n > 1])
def test_apply_two_site_matches_dense_product(L):
    # a generic gate, not particle conserving: every entry of the gate counts
    rng = np.random.default_rng(240 + L)
    dim = 1 << L
    gate = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for i in range(1, L + 1):
        for j in range(1, L + 1):
            if i != j:
                dense = op @ tc.embed_two_site(gate, i, j, L)
                assert_close_to_dense(tc.apply_two_site(op, gate, i, j, L), dense)


def test_apply_two_site_rejects_bad_arguments():
    op = tc.identity_operator(3)
    with pytest.raises(ValueError):
        tc.apply_two_site(op, np.eye(4), 2, 2, 3)
    with pytest.raises(ValueError):
        tc.apply_two_site(op, np.eye(4), 1, 4, 3)
    with pytest.raises(ValueError):
        tc.apply_two_site(op, np.eye(2), 1, 2, 3)
    with pytest.raises(ValueError):
        tc.apply_two_site(tc.identity_operator(2), np.eye(4), 1, 2, 3)


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
    vm.monodromy_matrix(0.3 + 0.1j, lattice, regime)
    fb._factorizer_for_order(tuple(range(1, L + 1)), lattice, regime)
    assert calls == []
