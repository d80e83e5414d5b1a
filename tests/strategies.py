"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from codeloops import BinaryCode, Codeword


@st.composite
def doubly_even_codes(draw, min_dimension=0, max_dimension=5):
    """Random doubly even codes, drawn as coordinate columns.

    A code of dimension k is fixed, up to coordinate order, by how many
    coordinates carry each column pattern v in GF(2)^k (bit i of v: the
    coordinate lies in generator i).  The counts are drawn freely, then the
    pair patterns fix odd generator meets and the single patterns fix
    generator weights to 0 mod 4, which makes the code doubly even; a
    nonzero count on every single pattern keeps the generators independent.
    Up to three zero coordinates are added and all coordinates shuffled.
    """
    k = draw(st.integers(min_dimension, max_dimension))
    counts = [draw(st.integers(0, 2)) if v else 0 for v in range(1 << k)]
    for i in range(k):
        for j in range(i + 1, k):
            meet = sum(c for v, c in enumerate(counts) if v >> i & 1 and v >> j & 1)
            counts[(1 << i) | (1 << j)] += meet % 2
    for i in range(k):
        weight = sum(c for v, c in enumerate(counts) if v >> i & 1)
        counts[1 << i] += -weight % 4 or (0 if counts[1 << i] else 4)
    pad = draw(st.integers(0 if k else 1, 3))
    columns = [v for v, c in enumerate(counts) for _ in range(c)] + [0] * pad
    columns = draw(st.permutations(columns))
    degree = len(columns)
    generators = [
        Codeword(degree, frozenset(p + 1 for p, v in enumerate(columns) if v >> i & 1))
        for i in range(k)
    ]
    return BinaryCode(degree, generators)


@st.composite
def binary_codes(draw, min_dimension=1, max_dimension=8, max_degree=128):
    """Random codes of any weights, drawn as coordinate columns.

    The column of a coordinate says which generators hold it (bit i:
    generator i).  One unit column per generator keeps the generators
    independent; the other columns are drawn from a few, so that classes
    of several coordinates and zero coordinates (column 0) come up, and
    all coordinates are shuffled.
    """
    k = draw(st.integers(min_dimension, max_dimension))
    pool = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=12))
    columns = [1 << i for i in range(k)]
    columns += draw(st.lists(st.sampled_from(pool), max_size=max_degree - k))
    columns = draw(st.permutations(columns))
    degree = len(columns)
    generators = [
        Codeword(degree, frozenset(p + 1 for p, v in enumerate(columns) if v >> i & 1))
        for i in range(k)
    ]
    return BinaryCode(degree, generators)


@st.composite
def relabeled_codes(draw, code, max_pad=3):
    """A copy of code under a change of basis, zero padding and a coordinate permutation.

    The basis changes by random generator sums and a generator shuffle, up
    to max_pad zero coordinates are appended, and then all coordinates are
    permuted.
    """
    k = code.dimension
    masks = [g.mask() for g in code.generators]
    for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=8)):
        if i != j:
            masks[i] ^= masks[j]
    masks = draw(st.permutations(masks))
    degree = code.degree + draw(st.integers(0, max_pad))
    perm = draw(st.permutations(range(1, degree + 1)))
    generators = [
        Codeword(degree, frozenset(perm[p] for p in range(code.degree) if m >> p & 1))
        for m in masks
    ]
    return BinaryCode(degree, generators)
