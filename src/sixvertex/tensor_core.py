"""Occupation-basis indexing and dense operator algebra on spin-1/2 chains.

Convention, fixed once for the whole package: a chain of ``L`` sites is
indexed 1..L, site occupations are bits (1 = up-spin / particle), and the
basis index of a configuration puts site 1 in the most significant bit.
The all-empty configuration is index 0.  Operators are dense complex
matrices with row = out-state and column = in-state.  ``apply_two_site``
multiplies an operator by a two-site gate without forming the dense
``embed_two_site`` matrix, and ``apply_site_flips`` applies a weighted sum
of single-site flips to a block of vectors without forming any operator.
"""

from __future__ import annotations

import numpy as np

SITE_KINDS = ("raise", "lower", "number")

_GATES_1 = {
    "raise": np.array([[0, 0], [1, 0]], dtype=complex),
    "lower": np.array([[0, 1], [0, 0]], dtype=complex),
    "number": np.array([[0, 0], [0, 1]], dtype=complex),
}

PERMUTATION_GATE = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _bit_position(site: int, n_sites: int) -> int:
    return n_sites - site


def site_occupations(n_sites: int) -> list[np.ndarray]:
    """Per site (site 1 first), its occupation bit across every basis index."""
    indices = np.arange(1 << n_sites)
    return [(indices >> _bit_position(s, n_sites)) & 1 for s in range(1, n_sites + 1)]


def index_of_sites(sites, n_sites: int) -> int:
    """Basis index of the configuration occupying exactly ``sites``."""
    index = 0
    for s in sites:
        if not 1 <= s <= n_sites:
            raise ValueError(f"site {s} out of range 1..{n_sites}")
        index |= 1 << _bit_position(s, n_sites)
    return index


def vacuum_state(n_sites: int) -> np.ndarray:
    """Unit vector on the all-empty configuration."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    state = np.zeros(1 << n_sites, dtype=complex)
    state[0] = 1.0
    return state


def identity_operator(n_sites: int) -> np.ndarray:
    return np.eye(1 << n_sites, dtype=complex)


def site_operator(kind: str, site: int, n_sites: int) -> np.ndarray:
    """Single-site raise / lower / number operator embedded in the chain."""
    if kind not in SITE_KINDS:
        raise ValueError(f"kind must be one of {SITE_KINDS}, got {kind!r}")
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} out of range 1..{n_sites}")
    gate = _GATES_1[kind]
    dim = 1 << n_sites
    pos = _bit_position(site, n_sites)
    cols = np.arange(dim)
    b = (cols >> pos) & 1
    base = cols & ~(1 << pos)
    out = np.zeros((dim, dim), dtype=complex)
    for a in (0, 1):
        out[base | (a << pos), cols] = gate[a, b]
    return out


def _two_site_gate(gate, site_i: int, site_j: int, n_sites: int) -> np.ndarray:
    # Shared argument checks of the two-site routes; returns the complex gate.
    if site_i == site_j:
        raise ValueError("two-site gate needs two distinct sites")
    for s in (site_i, site_j):
        if not 1 <= s <= n_sites:
            raise ValueError(f"site {s} out of range 1..{n_sites}")
    g = np.asarray(gate, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"gate must be 4x4, got {g.shape}")
    return g


def embed_two_site(gate, site_i: int, site_j: int, n_sites: int) -> np.ndarray:
    """Embed a 4x4 gate acting on (site_i, site_j), identity elsewhere.

    The gate is indexed in the order (|00>, |01>, |10>, |11>) with the first
    slot belonging to ``site_i``.  The dense embedding is the reference that
    ``apply_two_site`` reproduces without building it.
    """
    g = _two_site_gate(gate, site_i, site_j, n_sites)
    dim = 1 << n_sites
    pi = _bit_position(site_i, n_sites)
    pj = _bit_position(site_j, n_sites)
    cols = np.arange(dim)
    bi = (cols >> pi) & 1
    bj = (cols >> pj) & 1
    base = cols & ~((1 << pi) | (1 << pj))
    col_sub = (bi << 1) | bj
    out = np.zeros((dim, dim), dtype=complex)
    for a in range(4):
        rows = base | ((a >> 1) << pi) | ((a & 1) << pj)
        out[rows, cols] = g[a, col_sub]
    return out


# Reorders a two-site gate's basis when its two slots trade places.
_SLOT_SWAP = np.array([0, 2, 1, 3])


def apply_two_site(op, gate, site_i: int, site_j: int, n_sites: int) -> np.ndarray:
    """``op @ embed_two_site(gate, site_i, site_j, n_sites)``, no embedding built.

    The two site axes of op's column index move last, in site order, and the
    ``(rows * dim/4, 4)`` view is multiplied by the 4x4 gate: O(dim) work per
    row instead of O(dim^2).  Where an output entry has two nonzero terms the
    result may differ from the dense product in the last bits.  A
    particle-conserving gate (such as the S-matrix) on a site that ``op``
    leaves alone gives every entry a single term, and then the two are
    equal exactly.
    """
    g = _two_site_gate(gate, site_i, site_j, n_sites)
    if site_i > site_j:
        site_i, site_j = site_j, site_i
        g = g[np.ix_(_SLOT_SWAP, _SLOT_SWAP)]
    op = np.asarray(op)
    dim = 1 << n_sites
    if op.ndim != 2 or op.shape[1] != dim:
        raise ValueError(f"operator needs {dim} columns, got shape {op.shape}")
    rows = op.shape[0]
    # column bits, most significant first: before site_i, site_i, between, site_j, after
    before, between = 1 << (site_i - 1), 1 << (site_j - site_i - 1)
    after = 1 << (n_sites - site_j)
    split = op.reshape(rows, before, 2, between, 2, after).transpose(0, 1, 3, 5, 2, 4)
    out = split.reshape(-1, 4) @ g
    out = out.reshape(rows, before, between, after, 2, 2).transpose(0, 1, 4, 2, 5, 3)
    return out.reshape(rows, dim)


def flip_columns(site: int, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices with ``site`` empty, and the same indices with it occupied.

    A raise flip at ``site`` maps the first onto the second, a lower flip the
    second onto the first.
    """
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} out of range 1..{n_sites}")
    empty = np.flatnonzero(site_occupations(n_sites)[site - 1] == 0)
    return empty, empty | (1 << _bit_position(site, n_sites))


def apply_site_flips(kind: str, weights, block) -> np.ndarray:
    """Sum over sites s of ``site_operator(kind, s, L) * weights[s - 1]``,
    applied to ``block`` (rows = basis states), without building an operator.

    ``weights`` stacks one weight vector per site, site 1 first, so L is its
    row count; ``kind`` is "raise" or "lower".
    """
    if kind not in ("raise", "lower"):
        raise ValueError(f"kind must be 'raise' or 'lower', got {kind!r}")
    weights = np.asarray(weights)
    block = np.asarray(block)
    n_sites = weights.shape[0]
    dim = 1 << n_sites
    if weights.shape != (n_sites, dim) or block.ndim != 2 or block.shape[0] != dim:
        raise ValueError(f"weights {weights.shape} and block {block.shape} do not match")
    out = np.zeros(block.shape, dtype=complex)
    for site, w in enumerate(weights, start=1):
        empty, occupied = flip_columns(site, n_sites)
        src, dst = (empty, occupied) if kind == "raise" else (occupied, empty)
        out[dst] += w[src, None] * block[src]
    return out


def max_abs_diff(a, b) -> float:
    """Uniform operator metric used throughout the suite."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def probe_residual(lhs, rhs) -> float:
    """max|lhs - rhs| / max(1, max|lhs|): the residual of an operator identity
    X = Y checked on probe vectors, lhs = X·V and rhs = Y·V."""
    lhs = np.asarray(lhs)
    return max_abs_diff(lhs, rhs) / max(1.0, float(np.max(np.abs(lhs))))
