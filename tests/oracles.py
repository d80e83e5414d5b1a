"""Slow loop checks, the oracles of the library's Moufang and associativity checks.

The library checks the Moufang identities and associativity on bit rows
of the factor set, 2^k triples of words per word operation.  The table
checks here test every triple of elements of the Cayley table and know
nothing of factor sets; the broadcast checks read the same phi terms as
the library, but one triple of words per array entry.
"""

import numpy as np


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
