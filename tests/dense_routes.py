"""Dense routes of the F-basis identities, kept as oracles for the tests.

The library checks the closed forms on their weight data and the identities
that involve F or the monodromy blocks on random probe vectors.  Here each
closed form is rebuilt as a dense 2^L x 2^L matrix from that weight data,
the factorizer as the product of dense ``embed_two_site`` matrices or as
``apply_factorizer`` on the whole identity, the monodromy blocks by applying T(t) to the identity, and each identity is
measured as the max-abs entrywise difference of dense operator products, as
the library did before.  For L <= 8 both routes must stay under the same
tolerance.
"""

from itertools import combinations

import numpy as np

from sixvertex import f_basis as fb
from sixvertex import tensor_core as tc
from sixvertex import vertex_model as vm


def identity_operator(n_sites):
    """The identity on the 2^n_sites chain space: the block that turns an
    applied operator into its dense matrix."""
    return np.eye(1 << n_sites, dtype=complex)


def site_occupations(n_sites):
    """Per site (site 1 first), its occupation bit across every basis index:
    the bit-index oracle that ``tensor_core.site_axes`` is checked against."""
    indices = np.arange(1 << n_sites)
    return [(indices >> tc._bit_position(s, n_sites)) & 1 for s in range(1, n_sites + 1)]


def assert_close_to_dense(got, dense):
    """The gate routes agree with a dense product to 1e-14 of its scale."""
    bound = 1e-14 * max(1.0, float(np.max(np.abs(dense))))
    assert tc.max_abs_diff(got, dense) <= bound


def dense_entries(t, lattice, regime):
    """The dense A, B, C, D blocks: the monodromy applied to the identity."""
    return vm.monodromy_entries(t, lattice, regime, identity_operator(lattice.length))


def dense_f(lattice, regime):
    """F applied to the 2^L identity: the dense matrix whose particle-number
    sector blocks ``factorizing_operator`` keeps."""
    L = lattice.length
    return fb.apply_factorizer(tuple(range(1, L + 1)), identity_operator(L), lattice, regime)


def dense_tail(order, pos, lattice, regime):
    """Product of the dense S-matrix embeddings coupling site order[pos] to
    every later site of ``order``."""
    L, n = lattice.length, order[pos]
    out = identity_operator(L)
    for later in order[pos + 1 :]:
        gate = vm.s_matrix(lattice.xi[later - 1], lattice.xi[n - 1], regime)
        out = out @ tc.embed_two_site(gate, later, n, L)
    return out


def dense_factorizer(order, lattice, regime):
    """prod over ``order`` of (1 - n_site) + tail · n_site, densely."""
    L = lattice.length
    out = identity_operator(L)
    for pos, site in enumerate(order):
        number = tc.site_operator("number", site, L)
        tail = dense_tail(order, pos, lattice, regime)
        out = out @ ((identity_operator(L) - number) + tail @ number)
    return out


def tail_columns(f, site):
    """(F e_{x|site}, raise_site F e_x) over every x with sites 1..site empty.

    On such columns the factors after ``site`` leave sites 1..site empty and
    the factors before it act as the identity, so the tail of ``site`` (in
    the identity order) maps the second block onto the first.
    """
    L = f.shape[0].bit_length() - 1
    bits = site_occupations(L)
    x = np.flatnonzero(np.all([bits[k] == 0 for k in range(site)], axis=0))
    raised = x | tc.index_of_sites((site,), L)
    return f[:, raised], tc.site_operator("raise", site, L) @ f[:, x]


def dense_flip_sum(kind, weights):
    """sum_s site_operator(kind, s, L) * weights[s - 1]: a dense closed form."""
    L = len(weights)
    return sum(tc.site_operator(kind, s, L) * w for s, w in enumerate(weights, start=1))


def dense_a(t, lattice, regime):
    return np.diag(fb.diagonal_a(t, lattice, regime))


def dense_b(t, lattice, regime):
    return dense_flip_sum("raise", fb.quasilocal_b(t, lattice, regime))


def dense_c(t, lattice, regime):
    return dense_flip_sum("lower", fb.quasilocal_c(t, lattice, regime))


def dense_creation(site, t, lattice, regime):
    L = lattice.length
    return tc.site_operator("raise", site, L) * fb.site_creation(site, t, lattice, regime)


def conjugated(op, f):
    return np.linalg.inv(f) @ op @ f


def closed_forms_dense_residual(f, t, lattice, regime):
    """max-abs residual of F^-1 X(t) F = X~(t) for X = A, B, C, with F dense."""
    ent = dense_entries(t, lattice, regime)
    return max(
        tc.max_abs_diff(conjugated(ent.a, f), dense_a(t, lattice, regime)),
        tc.max_abs_diff(conjugated(ent.b, f), dense_b(t, lattice, regime)),
        tc.max_abs_diff(conjugated(ent.c, f), dense_c(t, lattice, regime)),
    )


def factorization_dense_residual(lattice, regime):
    """max-abs residual of F = S_{i+1,i} F_swapped over all adjacent pairs,
    with the S-matrix embedded densely and multiplied from the left."""
    L = lattice.length
    identity_order = tuple(range(1, L + 1))
    f = dense_factorizer(identity_order, lattice, regime)
    worst = 0.0
    for site in range(1, L):
        swapped = list(identity_order)
        swapped[site - 1], swapped[site] = swapped[site], swapped[site - 1]
        f_swapped = dense_factorizer(tuple(swapped), lattice, regime)
        gate = tc.embed_two_site(fb.transposition_gate(site, lattice, regime), site + 1, site, L)
        worst = max(worst, tc.max_abs_diff(f, gate @ f_swapped))
    return worst


def exchange_dense_residual(lattice, regime):
    """max-abs residual of b_i b_j = ratio * b_j b_i at t = 0, all ordered pairs."""
    L = lattice.length
    creation = [dense_creation(s, 0.0, lattice, regime) for s in range(1, L + 1)]
    worst = 0.0
    for i in range(1, L + 1):
        for j in range(1, L + 1):
            if i != j:
                b_i, b_j = creation[i - 1], creation[j - 1]
                ratio = fb.exchange_ratio(i, j, lattice, regime)
                worst = max(worst, tc.max_abs_diff(b_i @ b_j, ratio * (b_j @ b_i)))
    return worst


def commutation_dense_residual(t, t2, lattice, regime):
    """max-abs residual of b_i(t) A~(t2) = c(xi_i - t2) A~(t2) b_i(t), all sites."""
    af = dense_a(t2, lattice, regime)
    worst = 0.0
    for i in range(1, lattice.length + 1):
        b_i = dense_creation(i, t, lattice, regime)
        scale = vm.c_weight(lattice.xi[i - 1] - t2, regime)
        worst = max(worst, tc.max_abs_diff(b_i @ af, scale * (af @ b_i)))
    return worst


def f_matrix_element_dense_residual(lattice, regime):
    """max-abs residual of F e_{n} = B(xi_{n_1}) ... B(xi_{n_M}) |0> over every
    subset n_1 < ... < n_M, with F and each B(xi_n) dense.

    F and the monodromy blocks are looked up on ``f_basis``, so a test that
    patches them there breaks this route and the library's alike.
    """
    L = lattice.length
    identity = identity_operator(L)
    f = dense_f(lattice, regime)
    b_ops = {
        n: fb.monodromy_entries(lattice.xi[n - 1], lattice, regime, identity).b
        for n in range(1, L + 1)
    }
    # Subsets run in increasing size, so the vector of (n_2 < ... < n_M) is
    # ready when (n_1 < n_2 < ... < n_M) needs it.
    vectors = {(): tc.vacuum_state(L)}
    worst = 0.0
    for m_count in range(L + 1):
        for subset in combinations(range(1, L + 1), m_count):
            if subset:
                vectors[subset] = b_ops[subset[0]] @ vectors[subset[1:]]
            col = f[:, tc.index_of_sites(subset, L)]
            worst = max(worst, tc.max_abs_diff(col, vectors[subset]))
    return worst
