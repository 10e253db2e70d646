import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvertex import tensor_core as tc


# Independent bit helpers, written from the convention (site 1 = most
# significant bit), that the oracles below index with.
def encode_bits(bits) -> int:
    """Index of an occupation bitstring (site 1 first)."""
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"occupation must be 0 or 1, got {b!r}")
        index = (index << 1) | b
    return index


def decode_bits(index: int, n_sites: int) -> tuple[int, ...]:
    """Occupation bitstring of a basis index, site 1 first."""
    if not 0 <= index < (1 << n_sites):
        raise ValueError(f"index {index} out of range for {n_sites} sites")
    return tuple((index >> (n_sites - s)) & 1 for s in range(1, n_sites + 1))


def occupation_count(index: int) -> int:
    return bin(index).count("1")


def occupied_sites(index: int, n_sites: int) -> tuple[int, ...]:
    return tuple(s for s, b in enumerate(decode_bits(index, n_sites), start=1) if b)


def embed_two_site_bruteforce(gate, site_i, site_j, n_sites):
    # Independent oracle: loop over all basis pairs, spectator bits must match.
    dim = 1 << n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        cb = decode_bits(col, n_sites)
        for row in range(dim):
            rb = decode_bits(row, n_sites)
            if any(
                rb[s - 1] != cb[s - 1]
                for s in range(1, n_sites + 1)
                if s not in (site_i, site_j)
            ):
                continue
            r = 2 * rb[site_i - 1] + rb[site_j - 1]
            c = 2 * cb[site_i - 1] + cb[site_j - 1]
            out[row, col] = gate[r, c]
    return out


def test_roundtrip_exhaustive():
    for L in list(range(1, 9)) + [12]:
        for idx in range(1 << L):
            bits = decode_bits(idx, L)
            assert encode_bits(bits) == idx
            assert sum(bits) == occupation_count(idx)


@given(L=st.integers(1, 12), data=st.data())
@settings(max_examples=60, deadline=None)
def test_roundtrip_sampled(L, data):
    idx = data.draw(st.integers(0, (1 << L) - 1))
    assert encode_bits(decode_bits(idx, L)) == idx


def test_site_one_is_most_significant_bit():
    # |10> on two sites (site 1 occupied) must be index 2, not 1.
    assert tc.index_of_sites([1], 2) == 2
    assert tc.index_of_sites([2], 2) == 1
    assert occupied_sites(2, 2) == (1,)
    assert decode_bits(2, 2) == (1, 0)


def test_vacuum_examples():
    v1 = tc.vacuum_state(1)
    assert np.allclose(v1, [1, 0])
    v2 = tc.vacuum_state(2)
    assert v2[0] == 1 and np.count_nonzero(v2) == 1
    with pytest.raises(ValueError):
        tc.vacuum_state(0)


def test_vacuum_annihilated_by_number_operators():
    v = tc.vacuum_state(3)
    for i in (1, 2, 3):
        assert np.allclose(tc.site_operator("number", i, 3) @ v, 0.0)


def test_number_operator_single_site():
    assert np.allclose(tc.site_operator("number", 1, 1), np.diag([0, 1]))


def test_raise_lower_compose_to_number():
    for L in (1, 2, 4):
        for i in range(1, L + 1):
            lhs = tc.site_operator("raise", i, L) @ tc.site_operator("lower", i, L)
            assert tc.max_abs_diff(lhs, tc.site_operator("number", i, L)) == 0.0


def test_disjoint_site_operators_commute():
    n = tc.site_operator("number", 1, 3)
    sp = tc.site_operator("raise", 3, 3)
    assert tc.max_abs_diff(n @ sp, sp @ n) == 0.0


def test_embed_identity_gate():
    assert tc.max_abs_diff(
        tc.embed_two_site(np.eye(4), 1, 3, 3), tc.identity_operator(3)
    ) == 0.0


def test_embed_permutation_swaps_occupations():
    P = tc.PERMUTATION_GATE
    op = tc.embed_two_site(P, 1, 3, 3)
    src = tc.index_of_sites([1], 3)
    dst = tc.index_of_sites([3], 3)
    e = np.zeros(8, dtype=complex)
    e[src] = 1
    out = op @ e
    assert out[dst] == 1 and np.count_nonzero(out) == 1
    # involution
    assert tc.max_abs_diff(op @ op, tc.identity_operator(3)) == 0.0


def test_embed_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    for L, i, j in [(2, 1, 2), (3, 3, 1), (4, 2, 4), (4, 4, 2)]:
        gate = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = tc.embed_two_site(gate, i, j, L)
        want = embed_two_site_bruteforce(gate, i, j, L)
        assert tc.max_abs_diff(got, want) == 0.0


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_disjoint_embeddings_commute(data):
    L = data.draw(st.integers(4, 6))
    sites = data.draw(st.permutations(range(1, L + 1)))
    i, j, k, l = sites[:4]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = tc.embed_two_site(g, i, j, L)
    b = tc.embed_two_site(h, k, l, L)
    assert tc.max_abs_diff(a @ b, b @ a) < 1e-14 * max(1.0, tc.max_abs_diff(a @ b, 0))


def test_embed_rejects_coinciding_sites():
    with pytest.raises(ValueError):
        tc.embed_two_site(np.eye(4), 2, 2, 3)


def test_site_operator_rejects_out_of_range():
    with pytest.raises(ValueError):
        tc.site_operator("number", 0, 2)
    with pytest.raises(ValueError):
        tc.site_operator("number", 3, 2)


def test_site_occupations_and_index_follow_the_bit_helpers():
    for L in (1, 3, 5):
        bits = tc.site_occupations(L)
        for idx in range(1 << L):
            assert tuple(int(b[idx]) for b in bits) == decode_bits(idx, L)
            assert tc.index_of_sites(occupied_sites(idx, L), L) == idx


def test_flip_columns_pair_empty_and_occupied_states():
    L = 4
    for site in range(1, L + 1):
        empty, occupied = tc.flip_columns(site, L)
        assert len(empty) == 1 << (L - 1)
        for x, y in zip(empty, occupied):
            bx, by = list(decode_bits(int(x), L)), list(decode_bits(int(y), L))
            assert bx[site - 1] == 0 and by[site - 1] == 1
            bx[site - 1] = 1
            assert bx == by
    with pytest.raises(ValueError):
        tc.flip_columns(0, L)


@pytest.mark.parametrize("kind", ["raise", "lower"])
def test_apply_site_flips_matches_dense_sum(kind):
    rng = np.random.default_rng(11)
    for L in (1, 2, 4, 6):
        dim = 1 << L
        weights = rng.normal(size=(L, dim)) + 1j * rng.normal(size=(L, dim))
        block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        dense = sum(tc.site_operator(kind, s, L) * weights[s - 1] for s in range(1, L + 1))
        assert tc.max_abs_diff(tc.apply_site_flips(kind, weights, block), dense @ block) < 1e-14


def test_apply_site_flips_rejects_bad_arguments():
    weights = np.ones((2, 4), dtype=complex)
    with pytest.raises(ValueError):
        tc.apply_site_flips("number", weights, np.ones((4, 1)))
    with pytest.raises(ValueError):
        tc.apply_site_flips("raise", weights, np.ones((8, 1)))
    with pytest.raises(ValueError):
        tc.apply_site_flips("raise", weights, np.ones(4))
    with pytest.raises(ValueError):
        tc.apply_site_flips("raise", np.ones((2, 8)), np.ones((4, 1)))


def test_probe_residual_is_relative_to_the_larger_lhs():
    assert tc.probe_residual([0.5, 0.0], [0.5, 1e-3]) == 1e-3
    assert tc.probe_residual([100.0, 0.0], [100.0, 1.0]) == 0.01
