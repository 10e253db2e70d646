"""Occupation-basis indexing and dense operator algebra on spin-1/2 chains.

Convention, fixed once for the whole package: a chain of ``L`` sites is
indexed 1..L, site occupations are bits (1 = up-spin / particle), and the
basis index of a configuration puts site 1 in the most significant bit.
The all-empty configuration is index 0.  Operators are dense complex
matrices with row = out-state and column = in-state.
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
    return tuple((index >> _bit_position(s, n_sites)) & 1 for s in range(1, n_sites + 1))


def occupation_count(index: int) -> int:
    return bin(index).count("1")


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


def occupied_sites(index: int, n_sites: int) -> tuple[int, ...]:
    return tuple(s for s in range(1, n_sites + 1) if (index >> _bit_position(s, n_sites)) & 1)


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


def embed_two_site(gate, site_i: int, site_j: int, n_sites: int) -> np.ndarray:
    """Embed a 4x4 gate acting on (site_i, site_j), identity elsewhere.

    The gate is indexed in the order (|00>, |01>, |10>, |11>) with the first
    slot belonging to ``site_i``.
    """
    if site_i == site_j:
        raise ValueError("two-site gate needs two distinct sites")
    for s in (site_i, site_j):
        if not 1 <= s <= n_sites:
            raise ValueError(f"site {s} out of range 1..{n_sites}")
    g = np.asarray(gate, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError(f"gate must be 4x4, got {g.shape}")
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


def max_abs_diff(a, b) -> float:
    """Uniform operator metric used throughout the suite."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
