"""Occupation-basis indexing and dense operator algebra on spin-1/2 chains.

Convention, fixed once for the whole package: a chain of ``L`` sites is
indexed 1..L, site occupations are bits (1 = up-spin / particle), and the
basis index of a configuration puts site 1 in the most significant bit.
The all-empty configuration is index 0.  Operators are dense complex
matrices with row = out-state and column = in-state.  Vector routes reach
sites through ``site_axes``: ``apply_two_site_left`` applies a two-site gate
to a block of vectors without forming ``embed_two_site``, ``apply_site_flips``
a weighted sum of single-site flips without forming any operator.
"""

from __future__ import annotations

import functools

import numpy as np

SITE_KINDS = ("raise", "lower", "number")

_GATES_1 = {
    "raise": np.array([[0, 0], [1, 0]], dtype=complex),
    "lower": np.array([[0, 1], [0, 0]], dtype=complex),
    "number": np.array([[0, 0], [0, 1]], dtype=complex),
}


def _bit_position(site: int, n_sites: int) -> int:
    return n_sites - site


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


def _check_sites(site_i: int, site_j: int, n_sites: int) -> None:
    if site_i == site_j:
        raise ValueError("two-site gate needs two distinct sites")
    for s in (site_i, site_j):
        if not 1 <= s <= n_sites:
            raise ValueError(f"site {s} out of range 1..{n_sites}")


def _two_site_gate(gate, site_i: int, site_j: int, n_sites: int) -> np.ndarray:
    # Shared argument checks of the two-site routes; returns the complex gate.
    _check_sites(site_i, site_j, n_sites)
    g = np.asarray(gate, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"gate must be 4x4, got {g.shape}")
    return g


def embed_two_site(gate, site_i: int, site_j: int, n_sites: int) -> np.ndarray:
    """Embed a 4x4 gate acting on (site_i, site_j), identity elsewhere.

    The gate is indexed in the order (|00>, |01>, |10>, |11>) with the first
    slot belonging to ``site_i``.  A stack of gates, shape (..., 4, 4),
    embeds to the stack of their embeddings, shape (..., dim, dim).  The
    dense embedding is the reference that ``apply_two_site_left``
    reproduces without building it.
    """
    _check_sites(site_i, site_j, n_sites)
    g = np.asarray(gate, dtype=complex)
    if g.shape[-2:] != (4, 4):
        raise ValueError(f"gate must be 4x4, got {g.shape}")
    dim = 1 << n_sites
    pi = _bit_position(site_i, n_sites)
    pj = _bit_position(site_j, n_sites)
    cols = np.arange(dim)
    bi = (cols >> pi) & 1
    bj = (cols >> pj) & 1
    base = cols & ~((1 << pi) | (1 << pj))
    col_sub = (bi << 1) | bj
    out = np.zeros(g.shape[:-2] + (dim, dim), dtype=complex)
    for a in range(4):
        rows = base | ((a >> 1) << pi) | ((a & 1) << pj)
        out[..., rows, cols] = g[..., a, col_sub]
    return out


def site_axes(array, sites, n_sites: int) -> np.ndarray:
    """View of ``array`` with one length-2 occupation axis per listed site, in
    the listed order, in front of its other axes: ``site_axes(v, (i,), L)[1]``
    is v on the states where site i is occupied.  The blocks of unlisted sites
    follow in site order, then the axes after the basis axis (axis 0).
    Writes land in ``array`` only when it is C-contiguous."""
    array = np.asarray(array)
    if array.shape[:1] != (1 << n_sites,):
        raise ValueError(f"array needs {1 << n_sites} rows, got shape {array.shape}")
    shape, axes = _site_layout(tuple(sites), n_sites, array.ndim - 1)
    return array.reshape(shape + array.shape[1:]).transpose(axes)


@functools.lru_cache(maxsize=None)  # at desk scale, building it costs more than the view
def _site_layout(sites: tuple, n_sites: int, n_tail: int) -> tuple[tuple, tuple]:
    # Basis bits, most significant first: a block before each listed site, the
    # site, and the block after the last one; then the site axes move first.
    order = sorted(sites)
    if len(set(order)) != len(order) or not all(1 <= s <= n_sites for s in order):
        raise ValueError(f"sites {sites} must be distinct and in 1..{n_sites}")
    shape, previous = [], 0
    for s in order:
        shape += [1 << (s - previous - 1), 2]
        previous = s
    shape.append(1 << (n_sites - previous))
    front = [2 * order.index(s) + 1 for s in sites]
    return tuple(shape), tuple(front + [a for a in range(len(shape) + n_tail) if a not in front])


# Reorders a two-site gate's basis when its two slots trade places.
_SLOT_SWAP = np.array([0, 2, 1, 3])


def apply_two_site_left(block, gate, site_i: int, site_j: int, n_sites: int) -> np.ndarray:
    """``embed_two_site(gate, site_i, site_j, n_sites) @ block``, no embedding
    built: the gate multiplies the (4, rest) matrix of the two sites' axes, in
    site order, O(dim) work per column instead of O(dim^2).  Where an output
    entry has two nonzero terms it may differ from the dense product in the
    last bits."""
    g = _two_site_gate(gate, site_i, site_j, n_sites)
    if site_i > site_j:  # the gate's terms then sum in site order, as for site_i < site_j
        site_i, site_j = site_j, site_i
        g = g[_SLOT_SWAP][:, _SLOT_SWAP]
    pair = site_axes(block, (site_i, site_j), n_sites)
    product = g @ pair.reshape(4, -1)
    out = np.empty(np.shape(block), dtype=complex)
    site_axes(out, (site_i, site_j), n_sites)[...] = product.reshape(pair.shape)
    return out


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
    src, dst = (0, 1) if kind == "raise" else (1, 0)
    out = np.zeros(block.shape, dtype=complex)
    for site, w in enumerate(weights, start=1):
        w_src = site_axes(w, (site,), n_sites)[src]
        block_src = site_axes(block, (site,), n_sites)[src]
        site_axes(out, (site,), n_sites)[dst] += w_src[..., None] * block_src
    return out


def max_abs_diff(a, b) -> float:
    """Uniform operator metric used throughout the suite."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def probe_residual(lhs, rhs) -> float:
    """max|lhs - rhs| / max(1, max|lhs|): the residual of an operator identity
    X = Y checked on probe vectors, lhs = X·V and rhs = Y·V."""
    lhs = np.asarray(lhs)
    return max_abs_diff(lhs, rhs) / max(1.0, float(np.max(np.abs(lhs))))
