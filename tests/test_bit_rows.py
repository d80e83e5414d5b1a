"""The bit-row kernels of the Moufang, associativity and sign checks against their oracles.

loops.is_moufang and factorset.associator_bits read the factor set as
2^k-bit rows and decide 2^k triples per word operation; the oracles in
oracles.py read the same phi terms one triple per array entry.  Every
comparison here is bit for bit: bit y of the kernel's word [z, x] (or bit
z of [x, y] for the associators) against the oracle's entry at that triple.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeloops import BinaryCode, Codeword, build_loop
from codeloops.catalog import all_loop_ids, catalog_entry
from codeloops.factorset import (
    FactorSet,
    associator_bits,
    bit_rows,
    build_factor_set,
    sign_tables,
    translates,
)
from codeloops.loops import CodeLoop, _moufang_defects, is_moufang
from oracles import (
    _broadcast_associator_bits,
    _broadcast_is_moufang,
    _broadcast_moufang_sides,
    _broadcast_sign_tables,
    _table_is_associative,
)
from strategies import doubly_even_codes


def _pack(bits):
    """The last axis of a 0/1 array as uint64 words, entry y at bit y."""
    shifts = np.arange(bits.shape[-1], dtype=np.uint64)
    return np.bitwise_or.reduce(bits.astype(np.uint64) << shifts, axis=-1)


def _assert_kernels_match_oracles(table):
    phi = np.array(table, dtype=np.uint8)
    for identity, (words, oracle) in enumerate(
        zip(_moufang_defects(phi), _broadcast_moufang_sides(phi), strict=True)
    ):
        assert (words == _pack(oracle)).all(), identity
    assert is_moufang(table) == is_moufang(phi) == _broadcast_is_moufang(phi)
    assert (associator_bits(phi) == _pack(_broadcast_associator_bits(phi))).all()
    signs = sign_tables(table)
    assert signs == sign_tables(phi) == _broadcast_sign_tables(phi)
    assert all(type(b) is int for plane in signs[2] for row in plane for b in row)
    return is_moufang(phi)


def _twist(table, f):
    """phi(v, w) + f(v) + f(w) + f(v + w): the loop of an isomorphic factor set."""
    n = len(table)
    return [[table[v][w] ^ f[v] ^ f[w] ^ f[v ^ w] for w in range(n)] for v in range(n)]


def _nonlinear(rng, n):
    """A map f on span words with f(0) = 0 that is not linear when n >= 4."""
    f = [0] + [rng.randrange(2) for _ in range(n - 1)]
    if n >= 4:
        f[3] = 1 ^ f[1] ^ f[2]
    return f


@st.composite
def zero_one_tables(draw):
    """A 2^k x 2^k 0/1 table, k = 0..6: random, random with phi(0, .) = phi(., 0) = 0,
    or the factor set of a random doubly even code under a coboundary twist."""
    kind = draw(st.sampled_from(["random", "normalized", "twisted"]))
    if kind == "twisted":
        code = draw(doubly_even_codes(0, 6))
        table = build_factor_set(code).table
        n = len(table)
        f = [0] + [draw(st.integers(0, 1)) for _ in range(n - 1)]
        return _twist(table, f)
    k = draw(st.integers(0, 6))
    n = 1 << k
    bits = draw(st.integers(0, (1 << n * n) - 1))
    table = [[bits >> (x * n + y) & 1 for y in range(n)] for x in range(n)]
    if kind == "normalized":
        table[0] = [0] * n
        for row in table:
            row[0] = 0
    return table


@settings(max_examples=150, deadline=None)
@given(zero_one_tables())
def test_kernels_match_oracles_on_any_table(table):
    _assert_kernels_match_oracles(table)


@settings(max_examples=30, deadline=None)
@given(doubly_even_codes(0, 6))
def test_factor_sets_of_random_codes_are_moufang(code):
    assert _assert_kernels_match_oracles(build_factor_set(code).table)


@pytest.mark.parametrize("name", all_loop_ids())
def test_kernels_match_oracles_on_flipped_and_twisted_catalog_tables(name):
    # a single flip anywhere, the zero row and column included, and
    # coboundary twists by nonlinear maps, so phi is not linear in y
    table = build_factor_set(catalog_entry(name).code()).table
    n = len(table)
    assert _assert_kernels_match_oracles(table)
    rng = random.Random(f"flips:{name}")
    cells = [(v, w) for v in range(n) for w in range(n)]
    for v, w in cells if n <= 8 else rng.sample(cells, 40):
        flipped = [row[:] for row in table]
        flipped[v][w] ^= 1
        moufang = _assert_kernels_match_oracles(flipped)
        assert not (v and w and moufang), (v, w)
    for _ in range(5):
        twisted = _twist(table, _nonlinear(rng, n))
        assert _assert_kernels_match_oracles(twisted)
        twisted[rng.randrange(1, n)][rng.randrange(1, n)] ^= 1
        assert not _assert_kernels_match_oracles(twisted)


def _direct_sums():
    """Each catalog code plus one to three generators made of 4-blocks on new coordinates.

    Block unions meet in multiples of 4, so the sum stays doubly even; the
    dimension is 5 or 6.
    """
    for name in all_loop_ids():
        code = catalog_entry(name).code()
        for extra in range(5 - code.dimension, 7 - code.dimension):
            degree = code.degree + 4 * (extra + 1)
            generators = [Codeword(degree, g.support) for g in code.generators]
            for i in range(extra):
                blocks = (i, i + 1)
                support = {code.degree + 4 * b + c for b in blocks for c in range(1, 5)}
                generators.append(Codeword(degree, frozenset(support)))
            yield name, BinaryCode(degree, generators)


DIRECT_SUMS = list(_direct_sums())


@pytest.mark.parametrize(
    "name,code", DIRECT_SUMS, ids=[f"{name}+{code.dimension}" for name, code in DIRECT_SUMS]
)
def test_kernels_match_oracles_on_direct_sums_of_dimension_5_and_6(name, code):
    assert code.dimension in (5, 6) and code.is_doubly_even()
    loop = build_loop(code)
    assert _assert_kernels_match_oracles(loop.factor_set.table)
    assert loop.is_moufang() and not loop.is_associative()
    rng = random.Random(f"direct sum:{name}:{code.dimension}")
    twisted = _twist(loop.factor_set.table, _nonlinear(rng, loop.words))
    assert _assert_kernels_match_oracles(twisted)


def test_is_associative_matches_the_table_product_on_twisted_associative_codes():
    # the only associative loops among the kernels' other inputs are the
    # small subcodes; this adds twisted ones of dimension 5 and 6
    code = BinaryCode(24, [Codeword(24, frozenset(range(4 * i + 1, 4 * i + 5))) for i in range(6)])
    rng = random.Random(20261020)
    for dimension in (5, 6):
        sub = BinaryCode(24, code.generators[:dimension])
        table = _twist(build_factor_set(sub).table, _nonlinear(rng, 1 << dimension))
        loop = CodeLoop(sub, FactorSet(sub, table))
        assert loop.is_associative() and _table_is_associative(loop.table)
        assert not associator_bits(loop.factor_set.array).any()


@pytest.mark.parametrize("k", range(7))
def test_translates_read_each_row_at_every_offset(k):
    n = 1 << k
    rng = np.random.default_rng(k)
    phi = rng.integers(0, 2, (n, n), dtype=np.uint8)
    rows = bit_rows(phi)
    assert (rows == _pack(phi)).all()
    t = translates(rows)
    w = np.arange(n)
    a, x, y = w[:, None, None], w[None, :, None], w[None, None, :]
    assert t.shape == (n, n)
    assert (t == _pack(phi[x, y ^ a])).all()


def test_bit_rows_refuse_tables_wider_than_a_word():
    with pytest.raises(ValueError):
        bit_rows(np.zeros((128, 128), dtype=np.uint8))


def test_factor_set_array_is_built_once_and_read_only():
    fs = build_factor_set(catalog_entry("C4_16").code())
    phi = fs.array
    assert fs.array is phi
    assert phi.dtype == np.uint8 and phi.tolist() == fs.table
    with pytest.raises(ValueError):
        phi[1, 1] ^= 1
