"""Slow paths, the oracles of the library's fast ones.

The library checks the Moufang identities and associativity on bit rows
of the factor set, 2^k triples of words per word operation.  The table
checks here test every triple of elements of the Cayley table and know
nothing of factor sets; the broadcast checks read the same phi terms as
the library, but one triple of words per array entry.

The library lists a reduced box as prefixes of the classes of three or
more generators times the bits of the pair classes; the level walk here
expands every partial row one class at a time.
"""

import numpy as np

from codeloops.search import _SUBSETS, Box, _independent, congruence_targets


def _triples(n):
    w = np.arange(n)
    return w[:, None, None], w[None, :, None], w[None, None, :]


def _table_is_moufang(table):
    """Check three equivalent Moufang identities on all triples of elements."""
    t = table
    z, x, y = _triples(len(t))
    if (t[z, t[x, t[z, y]]] != t[t[t[z, x], z], y]).any():
        return False
    if (t[x, t[z, t[y, z]]] != t[t[t[x, z], y], z]).any():
        return False
    if (t[t[z, x], t[y, z]] != t[t[z, t[x, y]], z]).any():
        return False
    return True


def _table_is_associative(table):
    """(xy)z = x(yz) on all triples of elements."""
    t = table
    x, y, z = _triples(len(t))
    return bool((t[t[x, y], z] == t[x, t[y, z]]).all())


def _broadcast_moufang_sides(phi):
    """Per identity, the xor of the phi terms of its two sides, on all triples (z, x, y)."""
    phi = np.asarray(phi, dtype=np.uint8)
    z, x, y = _triples(len(phi))
    xyz = x ^ y ^ z
    sides = (
        # z(x(zy)) = ((zx)z)y
        (phi[z, y] ^ phi[x, z ^ y] ^ phi[z, xyz], phi[z, x] ^ phi[z ^ x, z] ^ phi[x, y]),
        # x(z(yz)) = ((xz)y)z
        (phi[y, z] ^ phi[z, y ^ z] ^ phi[x, y], phi[x, z] ^ phi[x ^ z, y] ^ phi[xyz, z]),
        # (zx)(yz) = (z(xy))z
        (phi[z, x] ^ phi[y, z] ^ phi[z ^ x, y ^ z], phi[x, y] ^ phi[z, x ^ y] ^ phi[xyz, z]),
    )
    return [left ^ right for left, right in sides]


def _broadcast_is_moufang(phi):
    """The three Moufang identities on all 2^(3k) triples of words of a factor-set table."""
    return not any(defects.any() for defects in _broadcast_moufang_sides(phi))


def _broadcast_associator_bits(phi):
    """asc[x, y, z] = phi(x+y, z) + phi(x, y+z) + phi(x, y) + phi(y, z) mod 2, as a uint8 array."""
    phi = np.asarray(phi, dtype=np.uint8)
    x, y, z = _triples(len(phi))
    return phi[x ^ y, z] ^ phi[x, y ^ z] ^ phi[x, y] ^ phi[y, z]


def _broadcast_sign_tables(phi):
    """Square, commutator and associator bits as nested lists, read off a table by broadcasting."""
    phi = np.asarray(phi, dtype=np.uint8)
    return (
        phi.diagonal().tolist(),
        (phi ^ phi.T).tolist(),
        _broadcast_associator_bits(phi).tolist(),
    )


def _level_walk(target, cap):
    """The non-degenerate leaves of the reduced box of a class below cap, one level at a time.

    Every partial row is expanded at each class in subset order: its least
    admissible size is (r_j - superset sum) mod m_j, and its candidates
    step by m_j while they stay below 8 and keep the partial degree below
    cap.  Taking each row's candidates in turn keeps the rows in
    depth-first order, which is _scan's order.
    """
    subsets = _SUBSETS[target.rank]
    targets = congruence_targets(target.vector)
    x = np.zeros((1, len(subsets.sets)), dtype=np.uint8)
    total = np.zeros(1, dtype=np.int16)
    for j, label in enumerate(subsets.labels):
        mod, residue = targets["t" + label]
        least = (residue - x[:, list(subsets.above[j])].sum(axis=1, dtype=np.int16)) % mod
        sizes = least[:, None] + np.arange(0, 8, mod, dtype=np.int16)
        rows, nth = np.nonzero(sizes < cap - total[:, None])
        chosen = sizes[rows, nth]
        x, total = x[rows], total[rows] + chosen
        x[:, j] = chosen
    keep = _independent(target.rank, x)
    x, total = x[keep], total[keep]
    t = (x @ subsets.supersets).astype(np.uint8)
    return Box(x, t, total.astype(np.uint8))
