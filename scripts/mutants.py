#!/usr/bin/env python3
"""Run the tests against each listed mutant of the package.

A mutant is one edit of one module of `src/opmdeploy`: (file, old text,
new text), where the old text occurs in the file exactly once. Each is
applied in turn to a temporary copy of the checkout, and the tests run
there, stopping at the first failure. A mutant is killed when a test
fails and survives when every selected test passes. The unmutated copy
runs first and must pass, so that a failure is the mutant's.

Usage: python scripts/mutants.py [TEST ...]

TEST selects tests as pytest's arguments do; by default the whole suite
runs. Prints one line per mutant and a summary. Exits 0 when every mutant
is killed, 1 when one survives, and 2 when a mutant's old text is not in
its file exactly once, the unmutated copy fails, or pytest cannot run the
selection.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "opmdeploy"
_NOT_COPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-out", "*.egg-info"
)

MUTANTS = (
    # The three consistency checkers made unable to fail.
    ("classify.py", "    if report.self_fulfilling == expected:\n", "    if True:\n"),
    ("classify.py", "    if calibrated_both == condition:\n", "    if True:\n"),
    ("classify.py", "observed_self_fulfilling=report.self_fulfilling",
     "observed_self_fulfilling=s == 0 or (s > 0) == (pi0 == 0)"),
    # Killed before any checker test existed: a wider sign band, the
    # smallest calibration gap reported as the largest, and one group's
    # condition taken for both groups'.
    ("scenario.py", "EPS_EQ = 1e-12", "EPS_EQ = 1e-9"),
    ("metrics.py", "max([level.gap for level in levels])", "min([level.gap for level in levels])"),
    ("classify.py", "== 0) and (\n", "== 0) or (\n"),
    # The shift directions exchanged.
    ("classify.py", '"=><"[s]', '"=<>"[s]'),
    # The sweep CSV opened by its writer alone, so a failed sweep leaves it.
    ("cli.py", "    with _outputs(outputs) as handles:\n        sweep.write_records_csv",
     '    with _outputs({"manifest": outputs["manifest"]}, [("--out", args.out)]) as handles:'
     "\n        sweep.write_records_csv"),
    # An unavailable empirical metric subtracted as if it were a number.
    ("cli.py", "return None if a is None else abs(a - b)", "return abs(a - b)"),
)


def _pytest(copy: Path, selection: list[str]) -> int:
    # no bytecode cache, which could outlive an edit of the same size
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *selection],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def run(mutants, selection: list[str]) -> int:
    """Test each mutant on `selection`, printing the outcomes; the exit
    code of the module docstring."""
    for name, old, _ in mutants:
        if (ROOT / PACKAGE / name).read_text().count(old) != 1:
            print(f"mutants: {old!r} is not in {name} exactly once", file=sys.stderr)
            return 2
    survived = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
        if _pytest(copy, selection) != 0:
            print("mutants: the selected tests fail without a mutant", file=sys.stderr)
            return 2
        for name, old, new in mutants:
            path = copy / PACKAGE / name
            source = path.read_text()
            path.write_text(source.replace(old, new))
            began = time.perf_counter()
            code = _pytest(copy, selection)
            path.write_text(source)
            if code not in (0, 1):
                print(f"mutants: pytest exited {code} on {name}: {old!r}", file=sys.stderr)
                return 2
            survived += code == 0
            outcome = "survived" if code == 0 else "killed"
            print(f"{outcome:8}  {name}: {old.strip()!r} -> {new.strip()!r}"
                  f"  ({time.perf_counter() - began:.1f} s)")
    print(f"{len(mutants)} mutants: {len(mutants) - survived} killed, {survived} survived"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS, sys.argv[1:]))
