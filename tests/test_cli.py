"""Command line behavior: output fields, exit codes, determinism."""

import contextlib
import errno
import gc
import hashlib
import io
import os
import subprocess
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codeloops

from codeloops import format_code
from codeloops.catalog import SAMPLE_C4_16_A, SAMPLE_C4_16_B, all_loop_ids, catalog_entry
from codeloops.cli import main
from codeloops.search import enumerate_reduced
from strategies import doubly_even_codes


@pytest.fixture
def sample_files(tmp_path):
    a = tmp_path / "a.code"
    b = tmp_path / "b.code"
    a.write_text(SAMPLE_C4_16_A)
    b.write_text(SAMPLE_C4_16_B)
    return a, b


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_construct_fields(capsys, sample_files):
    a, _ = sample_files
    rc, out, _ = run(capsys, "construct", a)
    assert rc == 0
    lines = out.splitlines()
    assert "degree: 19" in lines
    assert "dimension: 4" in lines
    assert "doubly even: yes" in lines
    assert "weight enumerator: 0 4 8^6 12^7 16" in lines
    assert "type: 111122335" in lines
    assert "moufang: yes" in lines
    assert "lambda: 0001111100" in lines
    assert "class: C4_16" in lines


def test_construct_not_doubly_even(capsys, tmp_path):
    f = tmp_path / "odd.code"
    f.write_text("degree=8\n1-4\n4,5,6,7\n")
    rc, out, _ = run(capsys, "construct", f)
    assert rc == 0
    assert out.splitlines() == ["degree: 8", "not doubly even (weight 6)"]


def test_construct_single_odd_word(capsys, tmp_path):
    f = tmp_path / "w3.code"
    f.write_text("1,2,3\n")
    rc, out, _ = run(capsys, "construct", f)
    assert rc == 0
    assert "not doubly even (weight 3)" in out


def test_classify_associative(capsys, tmp_path):
    f = tmp_path / "assoc.code"
    f.write_text("degree=8\n1-4\n5-8\n")
    rc, out, _ = run(capsys, "classify", f)
    assert rc == 0
    assert "class: associative" in out


def test_classify_catalog_entry(capsys, tmp_path):
    entry = catalog_entry("C3_3")
    f = tmp_path / "c33.code"
    f.write_text(f"degree={entry.degree}\n" + "\n".join(entry.generator_lines) + "\n")
    rc, out, _ = run(capsys, "classify", f)
    assert rc == 0
    assert "class: C3_3" in out
    assert "lambda: 000111" in out


def test_iso_yes_and_no(capsys, sample_files):
    a, b = sample_files
    rc, out, _ = run(capsys, "iso", a, b)
    assert rc == 0
    assert out.startswith("not isomorphic\n")
    assert "reason: weight enumerator" in out

    rc, out, _ = run(capsys, "iso", a, a)
    assert rc == 0
    assert out.startswith("isomorphic\n")
    assert "permutation: ()" in out


def test_enumerate_counts_and_records(capsys):
    rc, out, _ = run(capsys, "enumerate", "--loop", "C3_1", "--max-degree", "7")
    assert rc == 0
    assert "representations: 1" in out
    assert "target: C3_1" in out
    assert "t: 1,2,2,2,4,4,4" in out
    assert "x: 1,1,1,1,1,1" in out
    assert "degree=7" in out


def test_minimal_record(capsys):
    rc, out, _ = run(capsys, "minimal", "--loop", "C3_2")
    assert rc == 0
    assert "loop: C3_2" in out
    assert "degree: 13" in out
    assert "type: 1111333" in out
    assert "visited:" in out
    assert "pruned:" in out


def test_conjecture_report(capsys):
    rc, out, _ = run(capsys, "conjecture", "--rank", "3", "--max-degree", "14")
    assert rc == 0
    assert "rank: 3" in out
    assert "max degree: 14" in out
    assert "counterexamples: 0" in out
    for line in out.splitlines():
        if line.startswith("group:"):
            assert "isomorphic=yes" in line


def test_out_files_are_byte_deterministic(tmp_path, capsys):
    f1 = tmp_path / "r1.txt"
    f2 = tmp_path / "r2.txt"
    assert main(["enumerate", "--loop", "C4_6", "--max-degree", "12",
                 "--out", str(f1)]) == 0
    assert main(["enumerate", "--loop", "C4_6", "--max-degree", "12",
                 "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_bytes().startswith(b"target: C4_6\n")


def test_exit_code_1_on_bad_input(capsys, tmp_path):
    # superscript two, Arabic-Indic 16, and zero padding, which would name C4_1
    for loop_id in ("C9_1", "C3_\u00b2", "C4_\u0661\u0666", "C4_01"):
        rc, _, err = run(capsys, "minimal", "--loop", loop_id)
        assert rc == 1
        assert err == f"error: unknown loop id {loop_id!r}\n"

    rc, _, err = run(capsys, "construct", tmp_path / "missing.code")
    assert rc == 1

    bad = tmp_path / "bad.code"
    bad.write_text("degree=4\n1,2,x\n")
    rc, _, err = run(capsys, "construct", bad)
    assert rc == 1
    assert "line 2" in err

    rc, _, err = run(capsys, "enumerate", "--loop", "C3_1", "--max-degree", "999")
    assert rc == 1

    rc, out, err = run(capsys, "conjecture", "--rank", "4", "--max-degree", "106")
    assert rc == 1
    assert out == ""
    assert err == "error: max degree 106 out of range 1..105\n"


@pytest.mark.parametrize(
    "content",
    [
        b"degree=8\n\xff\xfe\n",  # not UTF-8
        "degree=\u00b2\n1-4\n".encode(),  # a superscript digit passes str.isdigit
        "degree=8\n1,\u00b2\n".encode(),
        b"degree=8\n1-99999999999\n",  # a range far past any degree
    ],
    ids=["non-utf8", "superscript-degree", "superscript-coordinate", "huge-range"],
)
def test_malformed_code_file_exits_1_without_traceback(capsys, tmp_path, content):
    f = tmp_path / "bad.code"
    f.write_bytes(content)
    rc, out, err = run(capsys, "construct", f)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [
        b"degree=8\r\n1-4\r\n5-8\r\n",
        b"degree=8\r1-4\r5-8\r",
        b"degree=8\n1,2,3\r4\r\n\n5-8",
        b"\xef\xbb\xbfdegree=8\n1-8\n",  # a byte-order mark is not stripped
        b"degree=8\n" + b"1-8\n" * 3000 + b"1-4,\xff\n",  # a bad byte past 8 KiB
    ],
    ids=["crlf", "cr", "mixed", "bom", "late-bad-byte"],
)
def test_code_file_reads_as_utf8_text_mode_reads_it(capsys, tmp_path, content):
    # construct reads bytes and decodes them whole; a text-mode read (universal
    # newlines) gives the same output, the same error and the same byte offset
    f = tmp_path / "a.code"
    f.write_bytes(content)
    try:
        with open(f, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        expected = (1, "", f"error: cannot read {f}: not UTF-8 text (byte {exc.start})\n")
    else:
        g = tmp_path / "read.code"
        g.write_text(text, encoding="utf-8", newline="")
        expected = run(capsys, "construct", g)
    assert run(capsys, "construct", f) == expected


@pytest.mark.parametrize("command", ["construct", "classify", "iso"])
def test_long_numbers_in_a_code_literal_exit_without_traceback(capsys, tmp_path, command):
    # int() refuses more than 4300 digits: zero padding is dropped first, and
    # a number still too long is one error line
    files = {}
    for name, text in [
        ("plain", "degree=8\n1-4\n"),
        ("padded", "degree=" + "0" * 4400 + "8\n1-" + "0" * 4400 + "4\n"),
        ("long", "degree=8\n1-7," + "9" * 5000 + "\n"),
    ]:
        files[name] = tmp_path / f"{name}.code"
        files[name].write_text(text)
    argv = lambda name: [files[name]] * (2 if command == "iso" else 1)
    assert run(capsys, command, *argv("padded")) == run(capsys, command, *argv("plain"))
    assert run(capsys, command, *argv("long")) == (
        1, "", "error: line 2, col 5: number too long\n"
    )


@pytest.mark.parametrize(
    "command, odd, expected",
    [
        ("construct", False, (1, "", "error: dimension 17 exceeds span cap 16 (2^17 codewords)\n")),
        ("construct", True, (0, "degree: 68\nnot doubly even (weight 2)\n", "")),
        ("classify", True, (0, "not doubly even (weight 2)\n", "")),
        ("iso", False, (1, "", "error: dimension 17 exceeds span cap 16 (2^17 codewords)\n")),
    ],
    ids=["construct", "construct-odd", "classify-odd", "iso"],
)
def test_dimension_above_span_cap_exits_1_without_traceback(capsys, tmp_path, command, odd, expected):
    # dimension 17 on 4-blocks is refused where the span is needed; the odd
    # variant shortens the first block to a weight-2 word, whose witness is
    # found without the span, so construct and classify report it
    lines = [f"{4 * i + 1}-{4 * i + 4}" for i in range(17)]
    if odd:
        lines[0] = "1,2"
    f = tmp_path / "big.code"
    f.write_text("degree=68\n" + "\n".join(lines) + "\n")
    assert run(capsys, command, *([f, f] if command == "iso" else [f])) == expected


@pytest.mark.parametrize("command", ["construct", "classify"])
def test_refused_code_leaves_no_partial_stdout(capsys, tmp_path, command):
    # doubly even, within the span cap, past the factor-set cap
    f = tmp_path / "dim7.code"
    f.write_text("".join(f"{4 * i + 1}-{4 * i + 4}\n" for i in range(7)))
    assert run(capsys, command, f) == (1, "", "error: dimension 7 exceeds solver cap 6\n")


def test_accepted_code_stdout_pinned(capsys, tmp_path):
    # construct then classify on every catalog code, the two samples, two
    # codes that are not doubly even, an associative and a dimension-6 code
    texts = [
        f"degree={catalog_entry(name).degree}\n" + "\n".join(catalog_entry(name).generator_lines) + "\n"
        for name in all_loop_ids()
    ]
    texts += [
        SAMPLE_C4_16_A,
        SAMPLE_C4_16_B,
        "degree=8\n1-4\n4,5,6,7\n",
        "1,2,3\n",
        "degree=8\n1-4\n5-8\n",
        "degree=27\n1-8\n1,4,9-14\n1,2,3,5,6,7,9-13,15-19\n2,3,15,16\n20-23\n24-27\n",
    ]
    out = []
    for i, text in enumerate(texts):
        f = tmp_path / f"{i}.code"
        f.write_text(text)
        for command in ("construct", "classify"):
            rc, stdout, _ = run(capsys, command, f)
            assert rc == 0
            out.append(stdout)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "e9033f3680e7386c825366be20b30c48968d13b1c44257c85a7355617fc6aa1e"


def test_construct_and_classify_never_build_the_cayley_table(capsys, tmp_path, monkeypatch):
    from codeloops.loops import CodeLoop

    entry = catalog_entry("C4_16")
    texts = [
        f"degree={entry.degree}\n" + "\n".join(entry.generator_lines) + "\n",
        "degree=27\n1-8\n1,4,9-14\n1,2,3,5,6,7,9-13,15-19\n2,3,15,16\n20-23\n24-27\n",
    ]
    files = []
    for i, text in enumerate(texts):
        files.append(tmp_path / f"{i}.code")
        files[-1].write_text(text)
    runs = lambda: [run(capsys, command, f) for f in files for command in ("construct", "classify")]
    before = runs()

    def refuse(self):
        raise AssertionError("the Cayley table was built")

    monkeypatch.setattr(CodeLoop, "_build_table", refuse)
    assert runs() == before


def test_classify_never_checks_the_moufang_law_and_construct_does(capsys, tmp_path, monkeypatch):
    from codeloops.loops import CodeLoop

    checked = []
    is_moufang = CodeLoop.is_moufang

    def counted(self):
        checked.append(self.rank)
        return is_moufang(self)

    monkeypatch.setattr(CodeLoop, "is_moufang", counted)
    for name in all_loop_ids():
        entry = catalog_entry(name)
        f = tmp_path / f"{name}.code"
        f.write_text(f"degree={entry.degree}\n" + "\n".join(entry.generator_lines) + "\n")
        assert run(capsys, "classify", f)[0] == 0
        assert checked == [], name
        rc, stdout, _ = run(capsys, "construct", f)
        assert rc == 0 and "\nmoufang: yes\nlambda: " in stdout
        assert checked == [len(entry.generator_lines)], name
        checked.clear()


# the CI codes of dimension 5 and 6: outside ranks 3 and 4, construct runs
# the Moufang kernel and then the associator kernel on one factor set
_WIDE_CODES = {
    "assoc5": ("degree=20\n1-4\n5-8\n9-12\n13-16\n17-20\n", "class: associative"),
    "dim6": (
        "degree=27\n1-8\n1,4,9-14\n1,2,3,5,6,7,9-13,15-19\n2,3,15,16\n20-23\n24-27\n",
        "class: unsupported rank 6",
    ),
}


@pytest.mark.parametrize("name", list(_WIDE_CODES))
def test_construct_builds_one_word_table_per_factor_set(capsys, tmp_path, monkeypatch, name):
    import codeloops.loops as loops_mod
    from codeloops import factorset
    from codeloops.loops import CodeLoop

    text, class_line = _WIDE_CODES[name]
    f = tmp_path / f"{name}.code"
    f.write_text(text)
    calls = Counter()
    factor_sets = []

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            result = fn(*args)
            if key == "build_factor_set":
                factor_sets.append(weakref.ref(result))
            return result
        return wrapper

    # the benchmark's hooks wrap the module-level is_moufang and
    # CodeLoop.is_associative, so both still run once per construct
    for owner, key in ((loops_mod, "build_factor_set"), (factorset, "translates"),
                       (loops_mod, "is_moufang"), (CodeLoop, "is_associative")):
        monkeypatch.setattr(owner, key, counted(key, getattr(owner, key)))
    rc, out, err = run(capsys, "construct", f)
    assert (rc, err) == (0, "")
    assert out.endswith(f"\nmoufang: yes\n{class_line}\n")
    assert calls == dict.fromkeys(["build_factor_set", "translates", "is_moufang",
                                   "is_associative"], 1)
    # the word table goes with its factor set: nothing is kept past the
    # call, and no reference cycle waits for the collector
    assert [ref() for ref in factor_sets] == [None]


def test_closed_stdout_pipe_exits_1_without_traceback():
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["enumerate", "--loop", "C4_16", "--max-degree", "37"]  # about 1 MB of output
    with subprocess.Popen(
        [sys.executable, "-m", "codeloops.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    ) as proc:
        assert proc.stdout.readline() == b"target: C4_16\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err
    assert err == "error: stdout was closed before the output was written\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_full_stdout_exits_1_without_traceback():
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "codeloops.cli", "minimal", "--loop", "C3_1"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_enumerate_tiny_bound_is_valid_and_empty(capsys):
    rc, out, _ = run(capsys, "enumerate", "--loop", "C3_1", "--max-degree", "3")
    assert rc == 0
    assert "representations: 0" in out


def test_exit_code_2_on_internal_failure(capsys, sample_files, monkeypatch):
    from codeloops import InternalInvariantError
    import codeloops.cli as cli_mod

    def boom(a, b):
        raise InternalInvariantError("witness check failed")

    monkeypatch.setattr(cli_mod, "code_isomorphism", boom)
    a, _ = sample_files
    rc = main(["iso", str(a), str(a)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "internal error:" in err


def test_conjecture_cross_checks_the_orbit_key(capsys, monkeypatch):
    import numpy as np
    import codeloops.equivalence as equivalence_mod

    # with only the identity, every box point is its own orbit, so a group
    # of isomorphic codes is reported split and code_isomorphism objects
    monkeypatch.setattr(
        equivalence_mod,
        "orbit_weights",
        lambda loop_class: 8 ** np.arange(2**loop_class.rank - 1)[None],
    )
    rc, out, err = run(capsys, "conjecture", "--rank", "4", "--max-degree", "21")
    assert rc == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("internal error: ")]
    assert "Traceback" not in err


def test_conjecture_builds_orbit_images_only_for_groups_of_two_or_more(monkeypatch):
    import codeloops.cli as cli_mod

    built = []
    packed_images = cli_mod._packed_images

    def counted(target, row):
        built.append(row)
        return packed_images(target, row)

    monkeypatch.setattr(cli_mod, "_packed_images", counted)
    groups, total = cli_mod._conjecture_groups(4, 25)
    shared = [group for group in groups.values() if group.count > 1]
    assert (total, len(groups), len(shared)) == (1948, 324, 252)
    # once per group, when its second member arrives: 72 groups never need one
    assert sorted(built) == sorted(group.first.row for group in shared)
    assert sum(group.gap is not None for group in shared) == 42


def test_conjecture_refuses_a_class_size_past_the_packed_field(capsys, monkeypatch):
    import codeloops.cli as cli_mod
    from codeloops.search import Representation

    # box rows hold class sizes below 8; a row with an 8 would carry into
    # the next 3-bit field of the orbit key, so it is a defect
    def widened(target, max_degree):
        for rep in enumerate_reduced(target, max_degree):
            row = tuple(size + 1 if size == 7 else size for size in rep.row)
            yield Representation._from_row(target, rep.degree, row, rep._t)

    monkeypatch.setattr(cli_mod, "enumerate_reduced", widened)
    rc, out, err = run(capsys, "conjecture", "--rank", "3", "--max-degree", "49")
    assert rc == 2
    assert out == ""
    assert err.startswith("internal error: class size 8 ")
    assert "Traceback" not in err


def test_conjecture_keeps_at_most_three_representations_per_group(capsys, monkeypatch):
    import codeloops.cli as cli_mod

    # every representation the scan yields, by group, through a weak reference
    refs = []

    def tracked(target, max_degree):
        for rep in enumerate_reduced(target, max_degree):
            refs.append(((rep.target.index, rep.degree, rep.rep_type().sizes), weakref.ref(rep)))
            yield rep

    alive = []
    cli_emit = cli_mod._emit

    def emit(chunks, out):
        gc.collect()
        alive.append(Counter(key for key, ref in refs if ref() is not None))
        cli_emit(chunks, out)

    monkeypatch.setattr(cli_mod, "enumerate_reduced", tracked)
    monkeypatch.setattr(cli_mod, "_emit", emit)
    rc, out, _ = run(capsys, "conjecture", "--rank", "4", "--max-degree", "25")
    assert rc == 0
    assert "counterexamples: 42" in out
    # the report keeps a group's first, last and gap members only
    assert max(Counter(key for key, _ in refs).values()) > 3
    [kept] = alive
    assert max(kept.values()) <= 3


def test_conjecture_lays_out_at_most_two_members_per_group(capsys, monkeypatch, tmp_path):
    import codeloops.cli as cli_mod
    import codeloops.search as search_mod

    # every code laid out goes through search.assemble_generators
    calls = []
    assemble = search_mod.assemble_generators

    def counted(t, x, target):
        calls.append(target.name)
        return assemble(t, x, target)

    monkeypatch.setattr(search_mod, "assemble_generators", counted)
    groups, total = cli_mod._conjecture_groups(4, 25)
    assert calls == []  # grouping reads the box rows only
    shared = sum(group.count > 1 for group in groups.values())
    assert (total, len(groups), shared) == (1948, 324, 252)
    out = tmp_path / "report.txt"
    rc, stdout, _ = run(capsys, "conjecture", "--rank", "4", "--max-degree", "25", "--out", out)
    assert rc == 0
    assert "counterexamples: 42" in stdout
    # the report of the pinned run (test_search.PINNED_RUNS)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "596a02647e66719675d0a85f6aae2ea6f2a4ec09582b8fc8800c32a58855e47b"
    )
    # a cross-check reads two members of each group of two or more, and a
    # counterexample record reads the members its cross-check laid out
    assert 0 < len(calls) <= 2 * shared


@pytest.mark.parametrize(
    "rank, cap, calls, isomorphic", [(4, 25, 252, 210), (3, 49, 32, 32)], ids=["rank4", "rank3"]
)
def test_conjecture_cross_checks_every_group_of_two_or_more(
    capsys, monkeypatch, tmp_path, rank, cap, calls, isomorphic
):
    import codeloops.cli as cli_mod

    # one code_isomorphism call per group of two or more: a witness for
    # each group reported isomorphic, None for each counterexample pair
    results = []
    search = cli_mod.code_isomorphism

    def counted(a, b):
        results.append(search(a, b))
        return results[-1]

    monkeypatch.setattr(cli_mod, "code_isomorphism", counted)
    out = tmp_path / "report.txt"
    rc, stdout, _ = run(capsys, "conjecture", "--rank", rank, "--max-degree", cap, "--out", out)
    assert rc == 0
    assert f"counterexamples: {calls - isomorphic}" in stdout
    assert len(results) == calls
    assert sum(result is not None for result in results) == isomorphic


def test_argparse_errors_map_to_exit_1(capsys):
    rc, _, err = run(capsys, "enumerate", "--loop", "C3_1")
    assert rc == 1
    rc, _, err = run(capsys, "nonsense")
    assert rc == 1


def test_main_calls_in_one_process_match_calls_on_their_own(capsys, tmp_path):
    import codeloops.cli as cli_mod

    # main() builds its parser once per process; each call must exit and
    # print as it does with a parser built for it alone
    out = tmp_path / "report.txt"
    calls = [
        ["enumerate", "--loop", "C3_1"],  # --max-degree missing
        ["conjecture", "--rank", "3", "--max-degree", "13", "--out", out],
        ["conjecture", "--rank", "3", "--max-degree", "13"],
    ]
    shared = [run(capsys, *argv) for argv in calls]
    report = out.read_text()
    alone = []
    for argv in calls:
        cli_mod._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert shared == alone
    assert out.read_text() == report
    assert [rc for rc, _, _ in shared] == [1, 0, 0]
    assert shared[0][2].startswith("error: ")
    assert shared[1][1].endswith(f"written: {out}\n")
    assert shared[2][1] == report


# argv at the edges of the command line, pinned as they exit and print at
# the parser dispatch that sent every argv through the top-level parser.
# Each of these exits 1, prints nothing to stdout and one line to stderr:
_FILE = "a.code"
_LOOP = ["--loop", "C3_1"]
_ARGV_ERRORS = [
    ([], "error: the following arguments are required: command"),
    (["nonsense", _FILE], "error: argument command: invalid choice: 'nonsense' (choose from "
     "'construct', 'classify', 'enumerate', 'minimal', 'iso', 'conjecture')"),
    (["construct"], "error: the following arguments are required: file"),
    (["construct", _FILE, _FILE], "error: unrecognized arguments: a.code"),
    (["construct", "--bogus", _FILE], "error: unrecognized arguments: --bogus"),
    (["classify"], "error: the following arguments are required: file"),
    (["classify", _FILE, _FILE], "error: unrecognized arguments: a.code"),
    (["classify", "--bogus", _FILE], "error: unrecognized arguments: --bogus"),
    (["iso", _FILE], "error: the following arguments are required: file_b"),
    (["iso", _FILE, _FILE, _FILE], "error: unrecognized arguments: a.code"),
    (["iso", "--bogus", _FILE, _FILE], "error: unrecognized arguments: --bogus"),
    (["enumerate", *_LOOP], "error: the following arguments are required: --max-degree"),
    (["enumerate", *_LOOP, "--max-degree", "7", "x"], "error: unrecognized arguments: x"),
    (["enumerate", *_LOOP, "--max-degree", "7", "--bogus"], "error: unrecognized arguments: --bogus"),
    (["enumerate", *_LOOP, "--max-degree", "x"], "error: argument --max-degree: invalid int value: 'x'"),
    (["enumerate", "--", *_LOOP, "--max-degree", "7"],
     "error: the following arguments are required: --loop, --max-degree"),
    (["minimal"], "error: the following arguments are required: --loop"),
    (["minimal", *_LOOP, "x"], "error: unrecognized arguments: x"),
    (["minimal", *_LOOP, "--bogus"], "error: unrecognized arguments: --bogus"),
    (["minimal", "--", *_LOOP], "error: the following arguments are required: --loop"),
    (["conjecture"], "error: the following arguments are required: --rank"),
    (["conjecture", "--rank", "3", "x"], "error: unrecognized arguments: x"),
    (["conjecture", "--rank", "3", "--bogus"], "error: unrecognized arguments: --bogus"),
    (["conjecture", "--rank", "x"], "error: argument --rank: invalid int value: 'x'"),
    (["conjecture", "--rank", "3", "--max-degree", "x"],
     "error: argument --max-degree: invalid int value: 'x'"),
    (["conjecture", "--rank", "5"], "error: argument --rank: invalid choice: 5 (choose from 3, 4)"),
    (["conjecture", "--", "--rank", "3"], "error: the following arguments are required: --rank"),
]
# and each of these prints nothing to stderr, with its exit code (a
# SystemExit code as "exit N"), the first line of stdout and the first 16
# hex digits of the sha256 of all of it
_ARGV_PRINTS = [
    (["-h"], "exit 0", "usage: codeloops [-h]", "30a1f7bc54f3da0b"),
    (["--help"], "exit 0", "usage: codeloops [-h]", "30a1f7bc54f3da0b"),
    (["construct", "--", _FILE], 0, "degree: 8", "9d3a14505f2675cc"),
    (["construct", "-h"], "exit 0", "usage: codeloops construct [-h] file", "2a573fa11d6a6b37"),
    (["classify", "--", _FILE], 0, "class: associative", "ce8b4c340db1ba09"),
    (["classify", "-h"], "exit 0", "usage: codeloops classify [-h] file", "b0334d35efb0748b"),
    (["iso", "--", _FILE, _FILE], 0, "isomorphic", "ee43b4889aa27e37"),
    (["iso", "-h"], "exit 0", "usage: codeloops iso [-h] file_a file_b", "0cceb705974d63e4"),
    (["enumerate", *_LOOP, "--max-deg", "7"], 0, "target: C3_1", "2d2edcc00ea1b2c0"),
    (["enumerate", "-h"], "exit 0",
     "usage: codeloops enumerate [-h] --loop LOOP --max-degree MAX_DEGREE", "c791d78958570fe8"),
    (["minimal", "-h"], "exit 0", "usage: codeloops minimal [-h] --loop LOOP", "8ef3a57760a32994"),
    (["conjecture", "--rank", "3", "--max-deg", "7"], 0, "rank: 3", "d37f64832465755b"),
    (["conjecture", "-h"], "exit 0",
     "usage: codeloops conjecture [-h] --rank {3,4} [--max-degree MAX_DEGREE]", "adbeed8705bed532"),
]
_EDGE_ARGV = [argv for argv, _ in _ARGV_ERRORS] + [argv for argv, *_ in _ARGV_PRINTS]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"exit {exc.code}"
    out = capsys.readouterr()
    return code, out.out, out.err


def _unquoted_choices(line):
    # Python 3.12.8 and later list argparse choices without quotes
    head, sep, choices = line.partition("(choose from ")
    return head + sep + choices.replace("'", "")


@pytest.fixture
def edge_dir(tmp_path, monkeypatch):
    # help text wraps at the terminal width, which argparse reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / _FILE).write_text("degree=8\n1-8\n")


@pytest.mark.parametrize("argv, line", _ARGV_ERRORS, ids=[" ".join(a) for a, _ in _ARGV_ERRORS])
def test_edge_case_argv_errors_as_pinned(capsys, edge_dir, argv, line):
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (1, "")
    assert _unquoted_choices(err) == _unquoted_choices(line) + "\n"


@pytest.mark.parametrize(
    "argv, code, first, digest", _ARGV_PRINTS, ids=[" ".join(a) for a, *_ in _ARGV_PRINTS]
)
def test_edge_case_argv_prints_as_pinned(capsys, edge_dir, argv, code, first, digest):
    got, out, err = _outcome(capsys, argv)
    assert (got, err, out.partition("\n")[0]) == (code, "", first)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("argv", _EDGE_ARGV, ids=[" ".join(a) for a in _EDGE_ARGV])
def test_edge_case_argv_print_as_through_the_top_level_parser(capsys, edge_dir, monkeypatch, argv):
    # main() hands an argv that starts with a subcommand name straight to
    # that subcommand's parser; with no names to match, every argv goes
    # through the top-level parser, which hands the rest to the same parser
    import codeloops.cli as cli_mod

    parser, commands = cli_mod._build_parser()
    parse_args = cli_mod._Parser.parse_args
    called = []

    def counted(self, *args):
        called.append(self.prog)
        return parse_args(self, *args)

    monkeypatch.setattr(cli_mod._Parser, "parse_args", counted)
    direct = _outcome(capsys, argv)
    assert called == [f"codeloops {argv[0]}" if argv and argv[0] in commands else "codeloops"]
    monkeypatch.setattr(cli_mod, "_build_parser", lambda: (parser, {}))
    assert _outcome(capsys, argv) == direct
    assert called[1:] == ["codeloops"]


def test_console_script_entry_point(sample_files):
    a, _ = sample_files
    # run the package the tests import, installed or not
    src = os.path.dirname(os.path.dirname(codeloops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "codeloops.cli", "construct", str(a)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "class: C4_16" in proc.stdout


def test_unwritable_out_exits_1_without_traceback(capsys, tmp_path):
    for argv in (["enumerate", "--loop", "C3_1", "--max-degree", "7"],
                 ["conjecture", "--rank", "3", "--max-degree", "7"]):
        rc, out, err = run(capsys, *argv, "--out", tmp_path)  # a directory
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {tmp_path}: ")


# loop ids, degree caps and code files for the fuzz test; caps stay where
# a command finishes in well under a second, or out of range
_LOOP_IDS = st.one_of(
    st.sampled_from(all_loop_ids()),
    st.text(alphabet="C345_0-9x \u00b2\u0661", max_size=6).filter(lambda s: not s.startswith("-")),
)
_CAPS = st.one_of(
    st.integers(-2, 21).map(str),
    st.sampled_from(["49", "50", "105", "106", "1e3", "x", "", "99999999999999999999"]),
)
_CODE_TEXTS = st.one_of(
    doubly_even_codes(max_dimension=5).map(format_code).map(str.encode),
    st.lists(
        st.lists(st.integers(0, 20), max_size=6).map(lambda cs: ",".join(map(str, cs))),
        max_size=8,
    ).map(lambda lines: "\n".join(lines).encode()),
    st.text(alphabet="degr=0123456789,- \n\u00b2", max_size=30).map(str.encode),
    st.binary(max_size=20),
)


@st.composite
def _argv(draw, files, out):
    command = draw(st.sampled_from(["construct", "classify", "iso", "enumerate", "minimal",
                                    "conjecture", "nonsense"]))
    if command in ("construct", "classify", "iso"):
        names = files[: 2 if command == "iso" else 1]
        for name in names:
            name.write_bytes(draw(_CODE_TEXTS))
        argv = [command, *map(str, names)]
    elif command == "enumerate":
        argv = [command, "--loop", draw(_LOOP_IDS), "--max-degree", draw(_CAPS)]
    elif command == "minimal":
        argv = [command, "--loop", draw(_LOOP_IDS)]
    elif command == "conjecture":
        rank = draw(st.sampled_from(["3", "4", "5", "x"]))
        cap = draw(st.integers(-2, 17 if rank == "4" else 49).map(str)
                   | st.sampled_from(["106", "1e3", "x", ""]))
        argv = [command, "--rank", rank, "--max-degree", cap]
    else:
        argv = [command]
    if command in ("enumerate", "conjecture") and draw(st.booleans()):
        argv += ["--out", str(draw(st.sampled_from([out, out, out.parent, out / "missing"])))]
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_main_keeps_the_exit_code_contract(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("fuzz")
    argv = data.draw(_argv([work / "a.code", work / "b.code"], work / "out.txt"))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    err = stderr.getvalue()
    expected = {0: "", 1: "error: ", 2: "internal error: "}[rc]
    assert err.startswith(expected) and (rc or err == "")
    assert err.count("\n") <= 1
