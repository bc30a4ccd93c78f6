"""The repository's scripts: the code-line counter, the experiment
runner and the mutant runner."""

import ast
import hashlib
import importlib.util
import json
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from opmdeploy import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
COUNTER = ROOT / "scripts" / "count_code_lines.py"
FIGURES = ("fig-bt-vs-diff.svg", "fig-bt-vs-diff-all.svg", "fig-bxt-vs-diff.svg",
           "fig-auc-pre-vs-diff.svg")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


count_code_lines = load_script("count_code_lines")
run_experiment = load_script("run_experiment")

SOURCE = '''"""Module docstring,
on two lines."""

# a comment-only line

import os  # a trailing comment counts


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        also on two lines."""

        def nested():
            """Nested docstring."""
            return 1

        return nested()


TEXT = """a string that is
not a docstring"""
CALL = os.path.join(
    "a",

    "b",
)
'''
# import, class, def, def nested, return 1, return nested(), both lines of
# TEXT and every line of CALL but the blank one
SOURCE_LINES = 1 + 1 + 1 + 1 + 1 + 1 + 2 + 4


def total(stdout: str) -> int:
    last = stdout.strip().splitlines()[-1]
    assert last.endswith("total")
    return int(last.split()[0])


def test_code_lines_skip_docstrings_comments_and_blanks():
    assert count_code_lines.code_lines(SOURCE) == SOURCE_LINES


def test_docstring_lines_are_those_of_each_scope():
    # module (1-2), class (10), method (13-14), nested function (17)
    assert count_code_lines.docstring_lines(SOURCE) == {1, 2, 10, 13, 14, 17}


def test_a_directory_without_python_files_exits_nonzero(tmp_path, capsys):
    assert count_code_lines.main(["count", str(tmp_path / "missing")]) != 0
    assert "no .py file" in capsys.readouterr().err
    assert count_code_lines.main(["count", str(tmp_path)]) != 0


def test_every_source_parses_as_the_oldest_python_declared():
    # the requires-python floor, held however new the interpreter is
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    paths = [*(ROOT / "src" / "opmdeploy").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_the_default_root_does_not_depend_on_the_working_directory(tmp_path):
    runs = [
        subprocess.run([sys.executable, str(COUNTER)], cwd=cwd, capture_output=True,
                       text=True, check=True).stdout
        for cwd in (ROOT, tmp_path)
    ]
    assert total(runs[0]) == total(runs[1]) > 0
    package = ROOT / "src" / "opmdeploy"
    assert total(runs[0]) == sum(
        count_code_lines.code_lines(p.read_text()) for p in package.rglob("*.py")
    )


def test_run_experiment_writes_the_pinned_outputs(tmp_path, monkeypatch, capsys):
    # Twice in one process, so the second run parses with the first's
    # parser. Each run writes into its own directory under the same
    # relative names, so the SVGs embed the pinned CSV path.
    monkeypatch.setattr(cli, "_timestamp", lambda: "2000-01-01T00:00:00+00:00")
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert run_experiment.run(Path(".")) == 0
        files = {str(p): p.read_bytes() for p in Path(".").rglob("*") if p.is_file()}
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]

    stdout, files = runs[0]
    golden_stdout = "".join(
        (GOLDEN / f"{step}.stdout").read_text() for step in ("sweep", "tables", "plot")
    )
    assert stdout == golden_stdout + "\nall outputs under ./\n"
    digests = json.loads((GOLDEN / "digests.json").read_text())
    for name in ("sweep.csv", *(f"figures/{svg}" for svg in FIGURES)):
        assert hashlib.sha256(files[name]).hexdigest() == digests[Path(name).name], name
    for name in ("sign_table.csv", "harm_table.csv"):
        assert files[f"tables/{name}"] == (GOLDEN / name).read_bytes()


mutants = load_script("mutants")
# The shift directions exchanged: the cheapest listed mutant to kill.
DIRECTIONS = next(m for m in mutants.MUTANTS if m[1] == '"=><"[s]')


def test_a_listed_mutant_is_killed_by_a_narrow_selection(capsys):
    selection = ["tests/test_classify.py::TestShiftSubcase::test_each_subcase"]
    assert mutants.run([DIRECTIONS], selection) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("1 mutants: 1 killed, 0 survived")


def test_a_mutant_whose_text_is_not_in_its_file_exits_2(capsys):
    assert mutants.run([("classify.py", "no such text", "")], []) == 2
    assert "not in classify.py exactly once" in capsys.readouterr().err


def test_a_mutant_that_no_selected_test_notices_survives(capsys):
    selection = ["tests/test_tools.py::test_code_lines_skip_docstrings_comments_and_blanks"]
    assert mutants.run([DIRECTIONS], selection) == 1
    assert capsys.readouterr().out.startswith("survived")


@pytest.mark.parametrize("mutant, outcomes, runs", [
    # killed by its module's tests: the rest of the suite is not run
    (DIRECTIONS, {"tests/test_classify.py": 1}, [["tests/test_classify.py"]]),
    # survives them: the whole suite decides
    (DIRECTIONS, {"tests/test_classify.py": 0, "": 1},
     [["tests/test_classify.py"], []]),
    (DIRECTIONS, {"tests/test_classify.py": 0, "": 0},
     [["tests/test_classify.py"], []]),
    # a module with no test file of its own
    (("report.py", "policy_post = (1 - top, top)", "policy_post = (top, 1 - top)"), {"": 1}, [[]]),
])
def test_the_mutated_modules_tests_run_first(monkeypatch, capsys, mutant, outcomes, runs):
    ran = []

    def pytest_run(copy, selection):
        ran.append(selection)
        return 0 if len(ran) == 1 else outcomes["".join(selection)]  # the unmutated copy passes

    monkeypatch.setattr(mutants, "_pytest", pytest_run)
    assert mutants.run([mutant], []) == (outcomes["".join(runs[-1])] == 0)
    assert ran == [[], *runs]
    assert capsys.readouterr().out.startswith("killed" if outcomes["".join(runs[-1])] else "survived")


def test_a_given_selection_runs_alone(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(mutants, "_pytest", lambda copy, selection: ran.append(selection) or len(ran) - 1)
    assert mutants.run([DIRECTIONS], ["tests/test_tools.py"]) == 0
    assert ran == [["tests/test_tools.py"]] * 2


def test_no_copy_tests_two_mutants_at_once(monkeypatch, capsys):
    # more copies than cores, each test run of a random length: every
    # mutant is tested, never two in one copy at once, and the outcomes
    # print in the list's order
    monkeypatch.setattr(mutants, "_COPIES", 4)
    listed = mutants.MUTANTS[:12]
    lock, busy, runs = threading.Lock(), set(), []

    def pytest_run(copy, selection):
        with lock:
            assert copy not in busy
            busy.add(copy)
            runs.append(copy)
        time.sleep(random.uniform(0, 0.01))
        with lock:
            busy.remove(copy)
        return 0 if len(runs) == 1 else 1  # the unmutated copy passes

    monkeypatch.setattr(mutants, "_pytest", pytest_run)
    assert mutants.run(listed, []) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(set(runs)) == 4
    assert [line.split("  (")[0] for line in lines[:-1]] == [
        f"killed    {name}: {old.strip()!r} -> {new.strip()!r}" for name, old, new in listed
    ]
    assert lines[-1].startswith("12 mutants: 12 killed, 0 survived")


@pytest.mark.parametrize("name, old, new", mutants.MUTANTS,
                         ids=[f"{i}-{m[0]}" for i, m in enumerate(mutants.MUTANTS)])
def test_each_listed_mutant_applies_once(name, old, new):
    # An edit that moves a listed text fails here, not only in the script.
    assert (ROOT / mutants.PACKAGE / name).read_text().count(old) == 1
    assert new != old
