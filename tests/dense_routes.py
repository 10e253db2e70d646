"""Dense routes of the F-basis identities, kept as oracles for the tests.

The library checks the closed forms on their weight data and the identities
that involve F on random probe vectors.  Here each closed form is rebuilt as
a dense 2^L x 2^L matrix from that weight data, and each identity is
measured as the max-abs entrywise difference of dense operator products, as
the library did before.  For L <= 8 both routes must stay under the same
tolerance.
"""

import numpy as np

from sixvertex import f_basis as fb
from sixvertex import tensor_core as tc
from sixvertex import vertex_model as vm


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


def conjugated(op, factorizer):
    return factorizer.f_inv @ op @ factorizer.f


def closed_forms_dense_residual(fac, t, lattice, regime):
    """max-abs residual of F^-1 X(t) F = X~(t) for X = A, B, C."""
    ent = vm.monodromy_entries(t, lattice, regime)
    return max(
        tc.max_abs_diff(conjugated(ent.a, fac), dense_a(t, lattice, regime)),
        tc.max_abs_diff(conjugated(ent.b, fac), dense_b(t, lattice, regime)),
        tc.max_abs_diff(conjugated(ent.c, fac), dense_c(t, lattice, regime)),
    )


def factorization_dense_residual(lattice, regime):
    """max-abs residual of F = S_{i+1,i} F_swapped over all adjacent pairs,
    with the S-matrix embedded densely and multiplied from the left."""
    L = lattice.length
    identity_order = tuple(range(1, L + 1))
    f = fb._factorizer_for_order(identity_order, lattice, regime)
    worst = 0.0
    for site in range(1, L):
        swapped = list(identity_order)
        swapped[site - 1], swapped[site] = swapped[site], swapped[site - 1]
        f_swapped = fb._factorizer_for_order(tuple(swapped), lattice, regime)
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
