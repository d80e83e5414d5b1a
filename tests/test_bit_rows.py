"""The bit-row kernels of the Moufang and associativity checks against their oracles.

loops.is_moufang and factorset.associator_bits gather the phi terms of
each identity from one table of 2^k-bit words (factorset.word_table) and
decide 2^k triples per word operation; the oracles in oracles.py read the
same phi terms one triple per array entry.  Every
comparison here is bit for bit: bit y of the kernel's word [z, x] (or bit
z of [x, y] for the associators) against the oracle's entry at that triple.
The signs of characteristic vectors come from the ANF of the squaring form
instead, and test_loops.py checks them against _broadcast_sign_tables.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codeloops
from codeloops import BinaryCode, Codeword, InvalidCodeError, build_loop
from codeloops.catalog import all_loop_ids, catalog_entry
from codeloops.factorset import (
    FactorSet,
    _associator_index,
    _moufang_defects,
    _moufang_index,
    associator_bits,
    bit_rows,
    build_factor_set,
    translates,
    word_table,
)
from codeloops.loops import CodeLoop, is_moufang
from oracles import (
    _broadcast_associator_bits,
    _broadcast_is_moufang,
    _broadcast_moufang_sides,
    _table_is_associative,
)
from strategies import doubly_even_codes


def _pack(bits):
    """The last axis of a 0/1 array as uint64 words, entry y at bit y."""
    shifts = np.arange(bits.shape[-1], dtype=np.uint64)
    return np.bitwise_or.reduce(bits.astype(np.uint64) << shifts, axis=-1)


def _assert_kernels_match_oracles(table):
    phi = np.array(table, dtype=np.uint8)
    defects = _moufang_defects(phi)
    assert defects.shape == (len(phi), len(phi)) and defects.dtype == np.uint64
    # the kernel checks the first identity, z(x(zy)) = ((zx)z)y, alone
    assert (defects == _pack(_broadcast_moufang_sides(phi)[0])).all()
    assert is_moufang(table) == is_moufang(phi) == _broadcast_is_moufang(phi)
    assert (associator_bits(phi) == _pack(_broadcast_associator_bits(phi))).all()
    return is_moufang(phi)


@pytest.mark.parametrize("k", range(3))
def test_the_first_identity_decides_all_three_on_every_table_up_to_k_2(k):
    # a quasigroup with one Moufang identity has them all (Kunen 1996);
    # the oracle broadcasts over trailing axes, so one call reads every
    # table of the size, stacked along the last axis
    n = 1 << k
    count = 1 << n * n
    entries = np.arange(count) >> np.arange(n * n)[:, None] & 1
    stack = entries.reshape(n, n, count).astype(np.uint8)
    clean = [~side.any(axis=(0, 1, 2)) for side in _broadcast_moufang_sides(stack)]
    assert (clean[0] == (clean[0] & clean[1] & clean[2])).all()
    assert int(clean[0].sum()) == (2, 4, 32)[k]
    tables = np.ascontiguousarray(stack.transpose(2, 0, 1))
    assert [is_moufang(table) for table in tables] == clean[0].tolist()


@pytest.mark.parametrize(
    "table, message",
    [
        (np.zeros((3, 3), np.uint8), "factor set table must be 2^k x 2^k"),
        (np.zeros((6, 6), np.uint8), "factor set table must be 2^k x 2^k"),
        (np.zeros((0, 0), np.uint8), "factor set table must be 2^k x 2^k"),
        (np.zeros((4, 2), np.uint8), "factor set table must be 2^k x 2^k"),
        (np.zeros((2, 2, 2), np.uint8), "factor set table must be 2^k x 2^k"),
        ([[0, 1], [1]], "factor set table must be 2^k x 2^k"),
        (np.zeros((128, 128), np.uint8), "a 128-entry row does not fit in 64 bits"),
        ([[0, 2], [0, 0]], "factor set entries must be 0 or 1"),
        ([[0, 256], [0, 0]], "factor set entries must be 0 or 1"),
        ([[0, -1], [0, 0]], "factor set entries must be 0 or 1"),
        ([[0, 0.5], [0, 0]], "factor set entries must be 0 or 1"),
    ],
    ids=["3x3", "6x6", "0x0", "4x2", "2x2x2", "ragged", "128x128", "2", "256", "-1", "0.5"],
)
def test_kernels_refuse_a_table_that_is_not_a_square_of_bits(table, message):
    # a 3x3 table once read the uninitialised words of a 2^k buffer, and
    # an entry of 2 passed as a sign exponent
    for kernel in (is_moufang, associator_bits, word_table):
        with pytest.raises(InvalidCodeError) as info:
            kernel(table)
        assert str(info.value) == message, kernel


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


@pytest.mark.parametrize("k", range(7))
def test_kernels_match_oracles_on_random_tables_of_every_size(k):
    # random 0/1 tables, not factor sets: phi(0, .) and phi(., 0) need not
    # vanish, and the Moufang identities fail almost everywhere
    n = 1 << k
    rng = np.random.default_rng(20261019 + k)
    for density in (0.5, 0.1, 0.9):
        for _ in range(3):
            _assert_kernels_match_oracles((rng.random((n, n)) < density).astype(np.uint8))


@pytest.mark.parametrize("k", range(7))
def test_stacked_rows_and_translates_equal_per_table_calls(k):
    n = 1 << k
    rng = np.random.default_rng(k)
    stack = rng.integers(0, 2, (2, 3, n, n), dtype=np.uint8)
    rows = bit_rows(stack)
    t = translates(rows)  # the translate by a first
    assert rows.shape == (2, 3, n) and t.shape == (n, 2, 3, n)
    for i, j in np.ndindex(2, 3):
        assert (rows[i, j] == bit_rows(stack[i, j])).all()
        assert (t[:, i, j] == translates(rows[i, j])).all()


def test_word_table_lays_out_spread_entries_then_the_translates_by_each_offset():
    n = 8
    phi = np.random.default_rng(8).integers(0, 2, (n, n), dtype=np.uint8)
    spread = phi.astype(np.uint64) * np.uint64(0xFF)
    words = word_table(phi)
    assert words.shape == (2 * n * n,) and words.dtype == np.uint64
    assert (words[: n * n] == spread.ravel()).all()
    # per offset a, the translates of the n rows
    assert (words[n * n :].reshape(n, n) == translates(bit_rows(phi))).all()


def test_index_tables_are_built_on_first_use_read_only_and_intp():
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import codeloops; from codeloops import factorset as f;"
            " print(*(g.cache_info().currsize for g in (f._associator_index, f._moufang_index)))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout == "0 0\n", proc.stderr
    tables = ((_associator_index(64), (4, 64, 64)), (_moufang_index(64), (6, 64, 64)))
    for index, shape in tables:
        assert index.shape == shape and index.dtype == np.intp
        assert int(index.max()) < 2 * 64 * 64
        with pytest.raises(ValueError):
            index[0, 0, 0] = 0


def test_bit_rows_refuse_tables_wider_than_a_word():
    # up to 64 entries, of any dtype, entry y != 0 sets bit y and no other
    rng = np.random.default_rng(64)
    for dtype in (bool, np.uint8, np.int64):
        for shape in ((3, 0), (4, 5), (2, 64), (2, 3, 0), (3, 2, 5), (2, 2, 64)):
            entries = rng.integers(0, 4, shape).astype(dtype)
            rows = bit_rows(entries)
            assert rows.dtype == np.uint64 and rows.shape == shape[:-1]
            for lead in np.ndindex(shape[:-1]):
                want = sum(1 << y for y, e in enumerate(entries[lead].tolist()) if e)
                assert int(rows[lead]) == want, (dtype, shape, lead)
    with pytest.raises(ValueError):
        bit_rows(np.zeros((128, 128), dtype=np.uint8))


def test_factor_set_array_is_built_once_and_read_only():
    fs = build_factor_set(catalog_entry("C4_16").code())
    phi = fs.array
    assert fs.array is phi
    assert phi.dtype == np.uint8 and phi.tolist() == fs.table
    with pytest.raises(ValueError):
        phi[1, 1] ^= 1


@pytest.mark.parametrize(
    "name,code", DIRECT_SUMS, ids=[f"{name}+{code.dimension}" for name, code in DIRECT_SUMS]
)
def test_a_factor_set_keeps_one_read_only_word_table_that_the_kernels_read(
    name, code, monkeypatch
):
    # the kernels given a FactorSet read its word table, built once from the
    # array it checked when it was made: no second check, no second table
    from codeloops import factorset

    rng = random.Random(f"words:{name}:{code.dimension}")
    built = build_factor_set(code)
    twisted = FactorSet(code, _twist(built.table, _nonlinear(rng, built.size)))
    translates_of = factorset.translates
    tables_built = []

    def counted(rows):
        tables_built.append(len(rows))
        return translates_of(rows)

    def refuse(*args):
        raise AssertionError("a factor set's table was checked again")

    for fs in (built, twisted):
        expected = (word_table(fs.array), _moufang_defects(fs.array), associator_bits(fs.array))
        with monkeypatch.context() as patch:
            patch.setattr(factorset, "translates", counted)
            patch.setattr(factorset, "_zero_one_table", refuse)
            got = (fs.word_table, _moufang_defects(fs), associator_bits(fs))
            assert is_moufang(fs) == _broadcast_is_moufang(fs.array)
        assert fs.word_table is got[0] and not got[0].flags.writeable
        for kernel, oracle in zip(got, expected):
            assert kernel.dtype == oracle.dtype and (kernel == oracle).all()
    assert tables_built == [built.size, built.size]
