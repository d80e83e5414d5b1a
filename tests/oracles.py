"""Element-level loop checks on a Cayley table, the oracles of the word-level checks.

The library checks the Moufang identities and associativity on the words
of the factor set.  These check them on every triple of elements of the
table, as the library did before, and know nothing of factor sets.
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
