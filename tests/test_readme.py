"""The README's library example runs, and its commented values are what it prints."""

import ast
import json
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    text = README.read_text()
    match = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no python block under ## Library"
    return match.group(1)


def test_readme_library_example_prints_its_commented_values():
    namespace = {}
    checked = []
    for line in _library_example().splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        try:
            expression = compile(code, README.name, "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        got = eval(expression, namespace)
        assert repr(got) == comment, (code, got)
        checked.append(ast.literal_eval(comment))
    assert checked == ["C3_1", (7, "1111111")]


def test_readme_cites_only_bench_files_that_exist_and_parse():
    # a measurement the README cites must be in the tree as a JSON record
    names = sorted(set(re.findall(r"BENCH_\w+\.json", README.read_text())))
    assert names
    for name in names:
        path = README.parent / name
        assert path.is_file(), name
        json.loads(path.read_text())
