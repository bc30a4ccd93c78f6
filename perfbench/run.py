#!/usr/bin/env python3
"""opmdeploy benchmark: one command, four workloads, correctness-gated.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`, never from an installed copy. One process, one thread, a
closed loop: each operation starts when the previous one has finished and
been checked. Every operation's output goes through the workload's
correctness gate (outside the timed region); an operation fails on a
nonzero exit, an exception or a failed gate, and `failed / attempted` is
the fail ratio.

With `--trace 0` the last stdout line carries the end-to-end metrics:

- setup_s: median over 11 fresh interpreters of the time from process start
  to the first timed call (imports, including `import opmdeploy`, plus
  building the workload's inputs).
- peak_rss_mb: peak resident set size of the measuring process.
- op_cost_ref: an operation's wall time in units of a fixed reference
  loop's wall time, the loop being timed beside the operations (median over
  blocks of at least REFERENCE_BLOCK_S; see reference_loop). An operation is
  one sweep -> tables -> plot pipeline (default-experiment: experiment_s),
  one sweep + tables on the wide grid, one simulate call, or one scenario
  through evaluate_scenario -> checks -> report_to_json (eval-stream:
  eval_us). On a shared host the machine's speed moves by 20-40% within
  seconds, so raw times (minimum, p50, p99 in ms, kept with the run's
  details) spread between runs by as much as any useful bound, while the
  ratio to the reference cancels that drift.
- items_per_ref: items per operation over op_cost_ref, where an item is a
  grid setting (default-experiment, wide-grid: sweep_settings_per_s), a
  drawn patient (mc-simulate: mc_patients_per_s, pre and post draws) or a
  scenario (eval-stream).

With `--trace 1` the run spends a third of its time untraced and the rest
with every layer function wrapped (see tracing.py), and reports per-layer
calls and self time per operation, counters, and the tracing overhead.
Details of each run go to .perfbench-out/<workload>/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
REFERENCE_BLOCK_S = 0.2
# Also the keys of workloads.WORKLOADS, which can be imported only after
# bootstrap() has found the program.
WORKLOAD_NAMES = ("default-experiment", "wide-grid", "mc-simulate", "eval-stream")


class MissingProgram(Exception):
    pass


def bootstrap(root: Path) -> None:
    """Put the checkout's sources first on the import path, single-threaded."""
    for need in (root / "src" / "opmdeploy" / "__init__.py", root / "configs"):
        if not need.exists():
            raise MissingProgram(f"{need} not found: run inside an opmdeploy checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import opmdeploy

    if Path(opmdeploy.__file__).resolve().parent != root / "src" / "opmdeploy":
        raise MissingProgram(f"imported opmdeploy from {opmdeploy.__file__}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready for its
    first timed call, once per repeat."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            try:
                line = child.stdout.readline()
                ready = time.perf_counter()
                child.wait(timeout=60)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        times.append(ready - t0)
    return times


def reference_loop() -> float:
    """Run a fixed piece of pure-Python work (float arithmetic, dict, str
    and list operations, as in the program's own inner loops) and return
    its wall time: about 12 ms on a 2-core x86 VM."""
    t0 = time.perf_counter()
    total, seen, values = 0.0, {}, []
    for i in range(20_000):
        x = i * 0.001
        seen[i & 1023] = (x, str(i))
        values.append(x * x + 1.0 / (1.0 + x))
        total += seen[i & 1023][0]
    total += sum(values)
    return time.perf_counter() - t0


def run_ops(wl, seconds: float, first: int, failures: dict, tracer=None) -> tuple[array, array]:
    """Closed loop for `seconds` of wall time, at least one operation.
    Each operation's output files are removed once it has been checked.

    Operations are grouped in blocks of at least REFERENCE_BLOCK_S of
    operation time, with the reference loop run between blocks; a block's
    ratio is its mean operation time over the mean of the two reference
    times beside it. Returns the operation times and the block ratios; gate
    failures land in `failures`."""
    from workloads import OpFailed

    durations, ratios = array("d"), array("d")
    ref_before = reference_loop()
    block, in_block = 0.0, 0
    i = first
    begin = time.perf_counter()
    while not durations or time.perf_counter() - begin < seconds:
        if tracer is not None:
            tracer.run_id = i
        out = None
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
            error = None
        except OpFailed as exc:
            error = str(exc)
        except Exception:
            error = traceback.format_exc()
        durations.append(time.perf_counter() - t0)
        block += durations[-1]
        in_block += 1
        if error is None:
            try:
                problems = wl.check(i, out)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        if problems:
            failures[i] = problems
        wl.clear()
        i += 1
        if block >= REFERENCE_BLOCK_S or time.perf_counter() - begin >= seconds:
            ref_after = reference_loop()
            ratios.append(block / in_block / ((ref_before + ref_after) / 2))
            ref_before, block, in_block = ref_after, 0.0, 0
    return durations, ratios


def end_to_end(wl, seed: int, seconds: float, failures: dict, out_dir: Path) -> tuple[int, dict, dict]:
    import numpy as np

    setup = measure_setup(wl.name, seed)
    durations, ratios = run_ops(wl, seconds, 0, failures)
    durations = np.frombuffer(durations, dtype=np.float64)
    np.save(out_dir / f"durations-seed{seed}.npy", durations)
    cost = statistics.median(ratios)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_cost_ref": (cost, "ref"),
        "items_per_ref": (wl.items_per_op / cost, "1/ref"),
    }
    p0, p50, p99 = np.percentile(durations, [0, 50, 99])
    details = {"operations": len(durations), "blocks": len(ratios),
               "op_ms_min": 1e3 * float(p0), "op_ms_p50": 1e3 * float(p50),
               "op_ms_p99": 1e3 * float(p99), "setup_probes_s": setup}
    print(f"{wl.name}: {details} (raw times are not bounded: they follow the host's load)")
    return len(durations), metrics, details


def per_layer(wl, seconds: float, failures: dict, out_dir: Path) -> tuple[int, dict, dict]:
    from tracing import SPAN_NAMES, Tracer

    # The untraced third runs first, so gates that call the program (the
    # wide-grid full check on the first operation) never run traced.
    plain, _ = run_ops(wl, seconds / 3, 0, failures)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_ops(wl, 2 * seconds / 3, len(plain), failures, tracer)
    finally:
        tracer.uninstall()
    ops = len(traced)
    wall = sum(traced)
    layers = tracer.layer_times()
    total_self = sum(layers["self_s"].values())
    remainder = wall - total_self
    if layers["min_self_s"] < -1e-6 or abs(total_self - layers["root_s"]) > 1e-6 * wall:
        raise RuntimeError(f"span accounting does not add up: {layers}")
    tracer.save(out_dir / "spans.npz")

    c = tracer.counts
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (layers["calls"][name] / ops, "count")
        metrics[f"{name}.self_s"] = (layers["self_s"][name] / ops, "s")
    metrics.update({
        "sweep.csv_bytes_written": (c["csv_bytes_written"] / ops, "B"),
        "sweep.csv_rows_read": (c["csv_rows_read"] / ops, "count"),
        "sweep.excluded_structural": ((c["cardinality"] - c["expanded"]) / ops, "count"),
        "sweep.excluded_numeric_tie": ((c["expanded"] - c["retained"]) / ops, "count"),
        "sweep.retained_ratio": (c["retained"] / c["cardinality"] if c["cardinality"] else 0.0, "ratio"),
        "figures.svg_bytes": (c["svg_bytes"] / ops, "B"),
        "mc.bytes_computed": (c["mc_bytes"] / ops, "B"),
        "trace.ops": (ops, "count"),
        "trace.wall_s": (wall / ops, "s"),
        "trace.untraced_s": (remainder / ops, "s"),
        "trace.overhead_ratio": ((wall / ops) / (sum(plain) / len(plain)), "ratio"),
    })

    print(f"{wl.name}: traced {ops} operations ({layers['spans']} spans) after "
          f"{len(plain)} untraced")
    print(f"{'layer':32s} {'calls/op':>12s} {'self s/op':>12s} {'share':>7s}")
    rows = [(n, layers["calls"][n], layers["self_s"][n]) for n in SPAN_NAMES]
    rows.append(("(untraced remainder)", 0, remainder))
    for name, calls, self_s in rows:
        print(f"{name:32s} {calls / ops:12.1f} {self_s / ops:12.6f} {self_s / wall:7.2%}")
    print(f"{'self times + remainder':32s} {'':12s} {(total_self + remainder) / ops:12.6f} "
          f"= traced wall {wall / ops:.6f} s/op")
    return len(plain) + ops, metrics, {"spans": layers["spans"], "untraced_operations": len(plain)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of one run (BENCHMARK.json: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        bootstrap(ROOT)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    from workloads import WORK_DIR, WORKLOADS

    wl = WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    out_dir = ROOT / WORK_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: dict[int, list[str]] = {}
    if args.trace:
        attempted, metrics, details = per_layer(wl, args.seconds, failures, out_dir)
    else:
        attempted, metrics, details = end_to_end(wl, args.seed, args.seconds, failures, out_dir)
    for i, problems in wl.finish().items():
        failures.setdefault(i, []).extend(problems)

    for i, problems in sorted(failures.items())[:5]:
        print(f"operation {i} failed: {'; '.join(problems)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(f"  fail_ratio = {len(failures) / attempted!r} ({len(failures)}/{attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, **details, "failures": failures}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
