#!/usr/bin/env python3
"""Run the tests against each listed mutant of the package.

A mutant is one edit of one module of `src/opmdeploy`: (file, old text,
new text), where the old text occurs in the file exactly once. Each is
applied to a temporary copy of the checkout, and the tests run there,
stopping at the first failure; on a host with two CPUs or more, two
copies take two mutants at once. A mutant is killed when a test fails and
survives when every selected test passes. The unmutated checkout is tested
first and must pass, so that a failure is the mutant's.

Usage: python scripts/mutants.py [TEST ...]

TEST selects tests as pytest's arguments do; by default the whole suite
runs, after the tests of the mutated module (`tests/test_<module>.py`,
where there is one): a mutant they kill is not run on the rest. Either
way a mutant is killed iff a selected test fails, so the verdicts are
those of the whole selection. The tests that each listed old text is in
its file are left out: every mutant fails them. Prints one line per
mutant and a summary. Exits 0 when every mutant is killed, 1 when one
survives, and 2 when a mutant's old text is not in its file exactly once,
the unmutated copy fails, or pytest cannot run the selection.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import SimpleQueue

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "opmdeploy"
# the tier-1 guard on this list, which a mutated copy fails by construction
_GUARD = "tests/test_tools.py::test_each_listed_mutant_applies_once"
_NOT_COPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-out", "*.egg-info"
)
# Checkout copies, each testing one mutant at a time.
_COPIES = min(2, os.cpu_count() or 1)

MUTANTS = (
    # The three consistency checkers made unable to fail.
    ("classify.py", "    if report.self_fulfilling == expected:\n", "    if True:\n"),
    ("classify.py", "    if calibrated_both == condition:\n", "    if True:\n"),
    ("classify.py", "expected == report.self_fulfilling)", "True)"),
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
    # The chunked streams: the y stream one draw late, each patient given
    # the other group's assignment, draws of 2*CHUNK patients, the harm
    # totals over the no-change settings, the last chunk of a many-chunk
    # stream kept as if it were all, and only the last chunk's
    # unrepresentable settings counted.
    ("mc.py", "bit_generator.advance(n))", "bit_generator.advance(n + 1))"),
    ("mc.py", "        t = assign[x]\n", "        t = assign[1 - x]\n"),
    ("mc.py", "np.empty(CHUNK), np.empty(CHUNK)\n    for start in range(0, n, CHUNK):\n"
              "        k = min(CHUNK, n - start)",
     "np.empty(2 * CHUNK), np.empty(2 * CHUNK)\n    for start in range(0, n, 2 * CHUNK):\n"
     "        k = min(2 * CHUNK, n - start)"),
    ("sweep.py", "total += np.bincount(key[changed]", "total += np.bincount(key[~changed]"),
    ("sweep.py", "        if made == 1:\n", "        if made >= 1:\n"),
    ("sweep.py", 'counts["unrepresentable"] += unrepresentable',
     'counts["unrepresentable"] = unrepresentable'),
    # The Monte Carlo gates: each patient counted with the previous one's
    # outcome draw, the deployed policy reversed, and the groups' effects
    # exchanged.
    ("mc.py", "        n_x1 += np.count_nonzero(x)\n",
     "        n_x1 += np.count_nonzero(x)\n        u_y = np.roll(u_y, 1)\n"),
    ("report.py", "policy_post = (1 - top, top)", "policy_post = (top, 1 - top)"),
    ("scenario.py", "return (self.q[1][0] - self.q[0][0], self.q[1][1] - self.q[0][1])",
     "return (self.q[1][1] - self.q[0][1], self.q[1][0] - self.q[0][0])"),
    # The figures' harmful AUC-shift sign flipped.
    ("figures.py", "return -benefit_sign(", "return benefit_sign("),
    # A config or grid key that is not known taken silently, a sample
    # without a case or a control ranked, a `--csv` that an output may
    # overwrite, and a failed run's earlier outputs left holding its bytes.
    ("cli.py", '    problems += [f"{k}: unknown config key" for k in sorted(set(raw) - set(keys))]\n',
     ""),
    ("mc.py", "    if n_pos and n_neg:\n", "    if n_pos or n_neg:\n"),
    ("cli.py", ', [("--csv", args.csv)]\n', ", []\n"),
    ("cli.py", "os.truncate(path, 0)", "pass"),
    # The sweep's counts and grid echo read from its record stream: the
    # unrepresentable settings left out of the removed ones, the echo
    # dropped; the reference total summed over one column, a retained
    # count other than the default grid's, and a polarity the tool does
    # not know read as desirable.
    ("cli.py", "removed = sum(exclusions.values())", 'removed = exclusions["structural"]'),
    ("cli.py", '**source, "counts"', '"counts"'),
    ("sweep.py", "sum(map(sum, REFERENCE_SIGN_TABLE.values()))",
     "sum(sf for sf, _ in REFERENCE_SIGN_TABLE.values())"),
    ("sweep.py", '"retained": DEFAULT_RETAINED,', '"retained": len(sign_table),'),
    ("scenario.py", "    except ValueError:\n        return value\n",
     "    except ValueError:\n        return OutcomePolarity.DESIRABLE\n"),
    # The memo of the last one-chunk sweep CSV: a hit on an equal size
    # alone, the kept columns not cast to the reader's dtypes, a memo kept
    # for a write of many chunks, one not forgotten by a later write, a
    # pipe read for the comparison, a token code past its column's range
    # written as another's text, kept columns left writeable, one chunk served past
    # the chunk size, and text naming a polarity answered as if it named
    # none.
    ("sweep.py", "fh.read(len(data) + 1) == data", "len(fh.read(len(data) + 1)) == len(data)"),
    ("sweep.py", "chunk.columns[name].astype(_COLUMN_DTYPES[name])", "chunk.columns[name].copy()"),
    ("sweep.py", "    if made == 1 and len(chunk)", "    if made >= 1 and len(chunk)"),
    ("sweep.py", "_written, made = None, 0", "made = 0"),
    ("sweep.py", "fh.seekable() and fh.read", "fh.read"),
    ("sweep.py", "    if len(values) and (values.min() < low or values.max() >= low + len(texts)):\n",
     "    if False:\n"),
    ("sweep.py", "            column.flags.writeable = False\n", "            pass\n"),
    ("sweep.py", "data is not None and len(records) <= CHUNK:", "data is not None:"),
    ("scenario.py", "if member is value else", "if True else"),
    # The writer's cells: a token code that is not a whole number cut to
    # one, merged columns indexed without the radix (two rows' pairs of
    # cells read as one), a line skipped after each full slice, and the
    # default grid's settings built again on each check.
    ("sweep.py", '    if values.dtype.kind not in "biu":\n', "    if False:\n"),
    ("sweep.py", "head_where * len(texts) + where", "head_where + where"),
    ("sweep.py", "range(0, len(chunk), _SLICE)", "range(0, len(chunk), _SLICE + 1)"),
    ("sweep.py", "@cache\ndef _default_settings", "def _default_settings"),
    # The result records assignable, and `tables` holding its whole record
    # stream at once.
    ("scenario.py", "cls = dataclass(frozen=True)(cls)", "cls = dataclass()(cls)"),
    ("cli.py", "sweep.aggregate_tables(records)",
     "sweep.aggregate_tables(sweep.Records.join(records.chunks()))"),
    # The figures' coordinate tables: a value near a rounding tie read off
    # them, the values they do not hold left blank, and the fills formatted
    # in each panel again; a written figure held while the next is drawn;
    # the outputs and the grid read in the locale's encoding.
    ("figures.py", "(abs(s - np.floor(s) - 0.5) > 1e-6) & ", ""),
    ("figures.py", "    whole[rest] = [_n(v) for v in column[rest].tolist()]\n", ""),
    ("figures.py", "fills[keep], 0.75)",
     "map_distinct(lambda c: diverging_color(0.5 + 0.5 * c / c_amp),"
     " columns[color_field][keep]), 0.75)"),
    ("cli.py", "fh.write(figures.odds_ratio_panels(recs, *axes, title, manifest))",
     "svg = figures.odds_ratio_panels(recs, *axes, title, manifest); fh.write(svg)"),
    ("cli.py", 'open(path, "w", newline="", encoding="utf-8")', 'open(path, "w", newline="")'),
    ("cli.py", 'open(path, encoding="utf-8")', "open(path)"),
    # One description per output: a key the file repeats taken at its last
    # value, each token read as the code of the text after it, and the
    # text's post line and simulate's post closed form read from the pre
    # block of the JSON payload.
    ("cli.py", '[f"{k}: given twice" for k, n in Counter(k for k, _ in pairs).items() if n > 1]',
     "[]"),
    ("sweep.py", "index + (low - 1)", "index + low"),
    ("cli.py", "        d = r[which]\n", '        d = r["pre"]\n'),
    ("cli.py", "closed = closed_form[which]", 'closed = closed_form["pre"]'),
    # Each check result holding what its checker decided: the subcase's
    # consistency judged against the harm flag, its expected value under
    # the other historic policy, a check block whose consistency is always
    # true, and the text's subcase line printing the expected value as the
    # consistency; the result records given a default their fields do not
    # declare; and a setting that differs from the default grid's only in
    # p_x taken for it.
    ("classify.py", "expected == report.self_fulfilling)", "expected == report.harm.harmful_marginal)"),
    ("classify.py", "(s > 0) == (pi0 == 0)", "(s > 0) == (pi0 == 1)"),
    ("cli.py", "    return vars(check).copy()\n", '    return {**vars(check), "consistent": True}\n'),
    ("cli.py", "consistent={c['consistent']}", "consistent={c['expected_self_fulfilling']}"),
    ("scenario.py", 'params = ", ".join(f.name for f in given)',
     'params = ", ".join(f"{f.name}=None" for f in given)'),
    ("sweep.py", "settings[name]) for name in PARAM_FIELDS)", "settings[name]) for name in PARAM_FIELDS[1:])"),
    # Each enum in the order its tables use: the harm table keyed on the
    # other polarity, the panel rows reversed, each verdict code shifted by
    # one, the verdict column left int64, and each enum declared in its old
    # order; an axis step computed from the whole span, which overflows
    # past the float range, and the AUC-change axis left uncapped.
    ("sweep.py", 'key = 4 * c["polarity"] + 2', 'key = 4 * (1 - c["polarity"]) + 2'),
    ("figures.py", "enumerate(OutcomePolarity)", "enumerate(reversed(OutcomePolarity))"),
    ("sweep.py", "verdict = (benefit_sign(_FAVORABLE_SIGN[c.polarity], c.pi0, sign) % 3)",
     "verdict = ((benefit_sign(_FAVORABLE_SIGN[c.polarity], c.pi0, sign) + 1) % 3)"),
    ("sweep.py", "sign) % 3).astype(np.int8)", "sign) % 3)"),
    ("scenario.py", '    UNDESIRABLE = "undesirable"\n    DESIRABLE = "desirable"\n',
     '    DESIRABLE = "desirable"\n    UNDESIRABLE = "undesirable"\n'),
    ("classify.py", '    NO_CHANGE = "no_change"\n    BENEFICIAL = "beneficial"\n    HARMFUL = "harmful"\n',
     '    HARMFUL = "harmful"\n    BENEFICIAL = "beneficial"\n    NO_CHANGE = "no_change"\n'),
    ("figures.py", "raw = half_span / target * 2", "raw = 2 * half_span / target"),
    ("figures.py", "min(_amplitude(auc_delta, 0.1, 1e-3) * 1.1, sys.float_info.max)",
     "_amplitude(auc_delta, 0.1, 1e-3) * 1.1"),
)


def _pytest(copy: Path, selection: list[str]) -> int:
    # no bytecode cache, which could outlive an edit of the same size
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect", _GUARD, *selection],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _module_tests(name: str) -> list[str]:
    """The mutated module's own test file, or none."""
    path = Path("tests") / f"test_{Path(name).stem}.py"
    return [str(path)] if (ROOT / path).is_file() else []


def _test(copy: Path, mutant, selection: list[str]) -> tuple[int, float]:
    """pytest's exit code on `copy` with one mutant applied, and the
    seconds it took; the mutated file is restored after."""
    name, old, new = mutant
    path = copy / PACKAGE / name
    source = path.read_text()
    path.write_text(source.replace(old, new))
    began = time.perf_counter()
    try:
        first = [] if selection else _module_tests(name)
        code = _pytest(copy, first) if first else 0
        if code == 0:
            code = _pytest(copy, selection)
    finally:
        path.write_text(source)
    return code, time.perf_counter() - began


def run(mutants, selection: list[str]) -> int:
    """Test each mutant on `selection`, printing the outcomes in list
    order; the exit code of the module docstring."""
    for name, old, _ in mutants:
        if (ROOT / PACKAGE / name).read_text().count(old) != 1:
            print(f"mutants: {old!r} is not in {name} exactly once", file=sys.stderr)
            return 2
    survived = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        free = SimpleQueue()  # the copies no mutant is using
        for i in range(_COPIES):
            copy = Path(tmp) / f"checkout{i}"
            shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
            free.put(copy)
        if _pytest(copy, selection) != 0:
            print("mutants: the selected tests fail without a mutant", file=sys.stderr)
            return 2

        def test(mutant):
            copy = free.get()
            try:
                return _test(copy, mutant, selection)
            finally:
                free.put(copy)

        with ThreadPoolExecutor(_COPIES) as pool:
            for (name, old, new), (code, seconds) in zip(mutants, pool.map(test, mutants)):
                if code not in (0, 1):
                    pool.shutdown(cancel_futures=True)
                    print(f"mutants: pytest exited {code} on {name}: {old!r}", file=sys.stderr)
                    return 2
                survived += code == 0
                outcome = "survived" if code == 0 else "killed"
                print(f"{outcome:8}  {name}: {old.strip()!r} -> {new.strip()!r}"
                      f"  ({seconds:.1f} s)", flush=True)
    print(f"{len(mutants)} mutants: {len(mutants) - survived} killed, {survived} survived"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS, sys.argv[1:]))
