"""Acceptance suite: eleven end-to-end checks with pinned budgets.

Each test prints one PASS line (visible under pytest -s) and enforces its
wall-clock budget.  Expected values are frozen here rather than recomputed,
so any drift in the library shows up as a hard failure.
"""

import itertools
import time

from codeloops import (
    BinaryCode,
    Codeword,
    ParamVector3,
    ParamVector4,
    build_factor_set,
    build_loop,
    canonical_catalog,
    characteristic_vector,
    classify,
    code_isomorphism,
    enumerate_reduced,
    minimal_representation,
    parse_code,
    parse_loop_id,
    solve_system4,
    verify_factor_set,
    verify_representation,
)
from codeloops.catalog import (
    SAMPLE_C4_16_A,
    SAMPLE_C4_16_B,
    all_loop_ids,
    catalog_entry,
)
from codeloops.cli import main
from codeloops.search import assemble_generators
from oracles import _broadcast_sign_tables, _table_is_moufang

RANK3_MINIMA = {
    "C3_1": (7, "1111111"),
    "C3_2": (13, "1111333"),
    "C3_3": (11, "1111115"),
    "C3_4": (17, "1111337"),
    "C3_5": (17, "1113335"),
}

RANK4_MINIMA = {
    "C4_1": (8, "11111111"),
    "C4_2": (14, "11111111222"),
    "C4_3": (12, "111111114"),
    "C4_4": (18, "11111111226"),
    "C4_5": (18, "111111112224"),
    "C4_6": (11, "11111114"),
    "C4_7": (17, "11113334"),
    "C4_8": (17, "11111122223"),
    "C4_9": (19, "11111222233"),
    "C4_10": (19, "111223333"),
    "C4_11": (17, "111122333"),
    "C4_12": (17, "1111112234"),
    "C4_13": (17, "111111236"),
    "C4_14": (13, "111111223"),
    "C4_15": (17, "111111227"),
    "C4_16": (17, "111112235"),
}

WALKTHROUGH_T = (0, 1, 0, 2, 0, 2, 6, 2, 6, 0, 4, 8, 8, 16, 4)
WALKTHROUGH_X = (1, 0, 2, 0, 1, 3, 0, 5, 0, 2, 1, 1, 3, 0)
WALKTHROUGH_SUPPORTS = [
    frozenset(range(1, 9)),
    frozenset({1, 4, 9, 10, 11, 12, 13, 14}),
    frozenset({1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19}),
    frozenset({2, 3, 15, 16}),
]

WEIGHTS_A = (0, 4, 8, 8, 8, 8, 8, 8, 12, 12, 12, 12, 12, 12, 12, 16)
WEIGHTS_B = (0, 4, 4, 8, 8, 8, 8, 8, 12, 12, 12, 12, 12, 12, 16, 16)


def test_criterion_01_catalog_consistency():
    t0 = time.monotonic()
    checked = 0
    for name in all_loop_ids():
        code = catalog_entry(name).code()
        assert code.is_doubly_even()
        loop = build_loop(code)
        assert loop.is_moufang()
        assert _table_is_moufang(loop.table)
        assert classify(loop).name == name
        checked += 1
    dt = time.monotonic() - t0
    assert checked == 21
    assert dt < 60.0
    print(f"PASS criterion 1: 21/21 catalog codes doubly even, Moufang, and "
          f"classified to their paired loop ({dt:.2f}s < 60s)")


def test_criterion_02_walkthrough_bit_exact():
    t0 = time.monotonic()
    t = ParamVector4(*WALKTHROUGH_T)
    sol = solve_system4(t)
    assert sol is not None
    assert sol.as_tuple() == WALKTHROUGH_X
    rep = assemble_generators(t, sol, parse_loop_id("C4_16"))
    assert [g.support for g in rep.generators] == WALKTHROUGH_SUPPORTS
    assert str(rep.rep_type()) == "111122335"
    loop = build_loop(rep.code())
    cv = characteristic_vector(loop, (1, 2, 4, 8))
    assert str(cv) == "0001111100"
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"PASS criterion 2: walkthrough t solves to the expected x, supports, "
          f"lambda 0001111100, type 111122335 ({dt:.3f}s < 1s)")


def test_criterion_03_weight_multiset_discrimination(capsys, tmp_path):
    t0 = time.monotonic()
    a = parse_code(SAMPLE_C4_16_A)
    b = parse_code(SAMPLE_C4_16_B)
    assert a.weight_enumerator() == WEIGHTS_A
    assert b.weight_enumerator() == WEIGHTS_B
    assert code_isomorphism(a, b) is None
    fa = tmp_path / "a.code"
    fb = tmp_path / "b.code"
    fa.write_text(SAMPLE_C4_16_A)
    fb.write_text(SAMPLE_C4_16_B)
    assert main(["iso", str(fa), str(fb)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("not isomorphic\n")
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"PASS criterion 3: weight multisets match the frozen pair and the "
          f"iso command reports not isomorphic ({dt:.3f}s < 1s)")


def test_criterion_04_overlap_table_reproduction():
    t0 = time.monotonic()
    a = parse_code(SAMPLE_C4_16_A)
    b = parse_code(SAMPLE_C4_16_B)
    assert ParamVector4.from_words(*a.generators).as_tuple() == WALKTHROUGH_T
    assert ParamVector4.from_words(*b.generators).as_tuple() == (
        2, 5, 2, 2, 4, 6, 6, 2, 14, 4, 4, 8, 16, 16, 4
    )
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"PASS criterion 4: both reference overlap rows recomputed "
          f"entry-for-entry from the sample generators ({dt:.3f}s < 1s)")


def test_criterion_05_minimality_rank3():
    t0 = time.monotonic()
    for name, (degree, type_str) in RANK3_MINIMA.items():
        rep, cert = minimal_representation(parse_loop_id(name))
        assert rep.degree == degree, name
        assert str(rep.rep_type()) == type_str, name
        assert cert.exhausted
        assert verify_representation(rep)
        assert not list(enumerate_reduced(name, degree - 1)), name
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"PASS criterion 5: rank 3 minima certified at degrees 7,13,11,17,17 "
          f"with the five expected types ({dt:.2f}s < 30s)")


def test_criterion_06_minimality_rank4():
    worst = 0.0
    for name, (degree, type_str) in RANK4_MINIMA.items():
        t0 = time.monotonic()
        rep, cert = minimal_representation(parse_loop_id(name))
        assert rep.degree == degree, name
        assert str(rep.rep_type()) == type_str, name
        assert cert.exhausted
        assert verify_representation(rep)
        assert not list(enumerate_reduced(name, degree - 1)), name
        worst = max(worst, time.monotonic() - t0)
    assert worst < 600.0
    print(f"PASS criterion 6: all 16 rank 4 (degree, type) minima certified, "
          f"none reachable one degree lower (worst loop {worst:.2f}s < 600s)")


def _element_sign_bits(loop):
    """Square, commutator, and associator bits straight off the table."""
    table = loop.table.tolist()
    n = len(table)
    inv = [next(y for y in range(n) if table[x][y] == 0) for x in range(n)]
    sq = [table[x][x] & 1 for x in range(n)]
    com = [[table[table[table[inv[x]][inv[y]]][x]][y] & 1 for y in range(n)]
           for x in range(n)]

    def asc(x, y, z):
        return (table[table[x][y]][z] ^ table[x][table[y][z]]) & 1

    return sq, com, asc


def test_criterion_07_sign_identity_suite():
    t0 = time.monotonic()
    triples = 0
    for name in all_loop_ids():
        code = catalog_entry(name).code()
        loop = build_loop(code)
        span_masks = [w.mask() for w in code.span()]
        weights = [m.bit_count() for m in span_masks]
        sq, com, asc = _element_sign_bits(loop)
        n = len(sq)
        for x in range(n):
            assert sq[x] == (weights[x >> 1] >> 2) & 1
        for x in range(n):
            for y in range(n):
                meet2 = (span_masks[x >> 1] & span_masks[y >> 1]).bit_count()
                assert com[x][y] == (meet2 >> 1) & 1
        for x in range(n):
            mx = span_masks[x >> 1]
            for y in range(n):
                mxy = mx & span_masks[y >> 1]
                for z in range(n):
                    expect = (mxy & span_masks[z >> 1]).bit_count() & 1
                    assert asc(x, y, z) == expect
                    triples += 1
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"PASS criterion 7: table signs equal the weight formulas on all "
          f"{triples} element triples across 21 loops ({dt:.2f}s < 60s)")


def _canonical_matches(loop):
    """Every canonical vector reachable from some admissible basis."""
    rank = loop.rank
    sq, cm, asc = _broadcast_sign_tables(loop.factor_set.array)
    n = loop.words
    canonical = {cv.bits for cv in canonical_catalog(rank)}
    found = set()
    if rank == 3:
        for a, b, c in itertools.permutations(range(1, n), 3):
            if c == (a ^ b) or not asc[a][b][c]:
                continue
            bits = (sq[a], sq[b], sq[c], cm[a][b], cm[a][c], cm[b][c])
            if bits in canonical:
                found.add(bits)
        return found
    nuclear = [
        d for d in range(1, n)
        if all(
            asc[d][v][w] == 0 and asc[v][d][w] == 0 and asc[v][w][d] == 0
            for v in range(n) for w in range(n)
        )
    ]
    for a, b, c in itertools.permutations(range(1, n), 3):
        if c == (a ^ b) or not asc[a][b][c]:
            continue
        abc = {0, a, b, c, a ^ b, a ^ c, b ^ c, a ^ b ^ c}
        for d in nuclear:
            if d in abc:
                continue
            bits = (
                sq[a], sq[b], sq[c], sq[d],
                cm[a][b], cm[a][c], cm[a][d], cm[b][c], cm[b][d], cm[c][d],
            )
            if bits in canonical:
                found.add(bits)
    return found


def test_criterion_08_non_isomorphism_matrix():
    t0 = time.monotonic()
    for rank, count in ((3, 5), (4, 16)):
        vectors = canonical_catalog(rank)
        reach = {}
        for index in range(1, count + 1):
            name = f"C{rank}_{index}"
            loop = build_loop(catalog_entry(name).code())
            reach[index] = _canonical_matches(loop)
            assert reach[index] == {vectors[index - 1].bits}, name
        for i, j in itertools.combinations(range(1, count + 1), 2):
            assert reach[i].isdisjoint(reach[j])
    dt = time.monotonic() - t0
    assert dt < 600.0
    print(f"PASS criterion 8: all 10 rank 3 and 120 rank 4 pairs separated; "
          f"each loop reaches exactly its own canonical vector ({dt:.2f}s < 600s)")


def test_criterion_09_factor_set_suite():
    t0 = time.monotonic()
    for name in all_loop_ids():
        phi = build_factor_set(catalog_entry(name).code())
        assert verify_factor_set(phi) == []
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"PASS criterion 9: factor sets built for 21/21 catalog codes with "
          f"zero axiom violations ({dt:.2f}s < 30s)")


def _brute_force_c31_spans(degree):
    """All-negative rank 3 spans over exactly `degree` coordinates.

    Straight subset enumeration: every unordered triple of nonzero words of
    weight divisible by 4 with even pairwise meets, covering the coordinate
    window, with all seven class sizes below 8, carrying some basis whose
    weights are 4 mod 8, pairwise meets 2 mod 4, and triple meet odd.
    """
    full = (1 << degree) - 1
    words = [w for w in range(1, 1 << degree) if w.bit_count() % 4 == 0]
    spans = set()
    for i, a in enumerate(words):
        for j in range(i + 1, len(words)):
            b = words[j]
            if (a & b).bit_count() & 1:
                continue
            ab = a ^ b
            for k in range(j + 1, len(words)):
                c = words[k]
                if c == ab or (a | b | c) != full:
                    continue
                if (a & c).bit_count() & 1 or (b & c).bit_count() & 1:
                    continue
                spans.add(frozenset((0, a, b, ab, c, a ^ c, b ^ c, ab ^ c)))
    kept = []
    for span in spans:
        base = sorted(span - {0})
        g1, g2, g3 = base[0], base[1], next(
            w for w in base if w not in (base[0], base[1], base[0] ^ base[1])
        )
        sizes = {}
        for p in range(degree):
            sig = (g1 >> p & 1, g2 >> p & 1, g3 >> p & 1)
            sizes[sig] = sizes.get(sig, 0) + 1
        if max(sizes.values()) >= 8:
            continue
        for p, q, r in itertools.combinations(span - {0}, 3):
            if r == p ^ q:
                continue
            if any(w.bit_count() % 8 != 4 for w in (p, q, r)):
                continue
            if any((u & v).bit_count() % 4 != 2 for u, v in ((p, q), (p, r), (q, r))):
                continue
            if (p & q & r).bit_count() & 1:
                kept.append(span)
                break
    return kept


def _span_to_code(span, degree):
    base = []
    seen = {0}
    for w in sorted(span):
        if w not in seen:
            base.append(w)
            seen = {x ^ w for x in seen} | seen
    return BinaryCode(degree, [Codeword.from_mask(degree, m) for m in base])


def _iso_transversal(codes):
    reps = []
    for code in codes:
        if not any(code_isomorphism(r, code) for r in reps):
            reps.append(code)
    return reps


def test_criterion_10_brute_force_oracle_equivalence():
    t0 = time.monotonic()
    by_degree = {}
    for rep in enumerate_reduced("C3_1", 10):
        by_degree.setdefault(rep.degree, []).append(rep.code())
    total = 0
    for degree in range(3, 11):
        oracle = [_span_to_code(s, degree) for s in _brute_force_c31_spans(degree)]
        mine = _iso_transversal(by_degree.get(degree, []))
        theirs = _iso_transversal(oracle)
        assert len(mine) == len(theirs), degree
        for code in theirs:
            hits = sum(1 for other in mine if code_isomorphism(code, other))
            assert hits == 1, degree
        total += len(theirs)
    dt = time.monotonic() - t0
    assert dt < 300.0
    print(f"PASS criterion 10: guided enumeration equals brute-force subset "
          f"search up to isomorphism through degree 10, {total} classes "
          f"({dt:.2f}s < 300s)")


def test_criterion_11_conjecture_scan(tmp_path, capsys):
    t0 = time.monotonic()
    outs = []
    for run in (1, 2):
        f3 = tmp_path / f"r3_{run}.txt"
        f4 = tmp_path / f"r4_{run}.txt"
        assert main(["conjecture", "--rank", "3", "--max-degree", "20",
                     "--out", str(f3)]) == 0
        assert main(["conjecture", "--rank", "4", "--max-degree", "19",
                     "--out", str(f4)]) == 0
        outs.append((f3.read_bytes(), f4.read_bytes()))
    capsys.readouterr()
    assert outs[0] == outs[1]
    r3, r4 = outs[0]
    assert b"rank: 3" in r3 and b"max degree: 20" in r3
    assert b"rank: 4" in r4 and b"max degree: 19" in r4
    assert b"counterexamples: 0" in r3
    assert b"counterexamples: 0" in r4
    assert r3.count(b"\ngroup:") > 0 and r4.count(b"\ngroup:") > 0
    dt = time.monotonic() - t0
    print(f"PASS criterion 11: conjecture scans (rank 3 to 20, rank 4 to 19) "
          f"complete, byte-deterministic, no counterexamples ({dt:.2f}s)")
