"""Command line behavior: output fields, exit codes, determinism."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codeloops

from codeloops import format_code
from codeloops.catalog import SAMPLE_C4_16_A, SAMPLE_C4_16_B, all_loop_ids, catalog_entry
from codeloops.cli import main
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
    for loop_id in ("C9_1", "C3_\u00b2", "C4_\u0661\u0666"):  # superscript two, Arabic-Indic 16
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
    import codeloops.cli as cli_mod

    # with only the identity, every box point is its own orbit, so a group
    # of isomorphic codes is reported split and code_isomorphism objects
    monkeypatch.setattr(
        cli_mod, "box_stabilizer", lambda loop_class: np.arange(2**loop_class.rank - 1)[None]
    )
    rc, out, err = run(capsys, "conjecture", "--rank", "4", "--max-degree", "21")
    assert rc == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("internal error: ")]
    assert "Traceback" not in err


def test_argparse_errors_map_to_exit_1(capsys):
    rc, _, err = run(capsys, "enumerate", "--loop", "C3_1")
    assert rc == 1
    rc, _, err = run(capsys, "nonsense")
    assert rc == 1


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
