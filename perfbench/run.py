"""horncalc benchmark runner.

Run from the repository root::

    python3 perfbench/run.py --workload query-warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke --workload geometry --trace 1

The package is imported from ``src/`` next to this directory; without it
run.py exits 2 before measuring anything.

``--trace 0`` measures the end-to-end metrics: the timed closed loop runs
whole cycles until ``--seconds`` have passed.  ``--trace 1`` runs a fixed
number of cycles twice, untraced and then with spans installed, and prints
the per-layer metrics plus the tracing overhead; spans are written to
``perfbench/out/``.  Either way every answer is checked, and the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` shrinks every workload to a single minimal cycle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from array import array
from collections import namedtuple
from statistics import median
from time import perf_counter

from speed import REFERENCE_KERNEL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("horn-build", "query-warm", "geometry", "cli")
SETUP_REPS = 3

Record = namedtuple("Record", "op idx k start raw seconds cycle")


class Records:
    """One timed loop, kept as columns of machine numbers so that the
    benchmark's own bookkeeping barely moves the measured peak memory.
    Iterating yields one ``Record`` at a time."""

    def __init__(self):
        self.ops: list = []
        self._op_no: dict = {}
        self.op_no, self.idx, self.k, self.cycle = array("L"), array("L"), array("L"), array("L")
        self.start, self.raw, self.seconds = array("d"), array("d"), array("d")

    def add(self, op, idx, k, cycle, start, raw) -> None:
        if op not in self._op_no:
            self._op_no[op] = len(self.ops)
            self.ops.append(op)
        self.op_no.append(self._op_no[op])
        for column, value in ((self.idx, idx), (self.k, k), (self.cycle, cycle), (self.start, start), (self.raw, raw)):
            column.append(value)

    def __len__(self) -> int:
        return len(self.raw)

    def __iter__(self):
        for i in range(len(self.raw)):
            yield Record(self.ops[self.op_no[i]], self.idx[i], self.k[i], self.start[i], self.raw[i], self.seconds[i], self.cycle[i])


def check_answer(op, x, k, answer, error):
    """None when the answer is right, else the reason it counts as failed."""
    if error is not None:
        return error
    try:
        return None if op.check(x, k, answer) else "wrong answer"
    except Exception:  # a check that cannot run counts against the answer
        return traceback.format_exc()


def run_cycles(cycle, probe, seconds=None, cycles=None, tracer=None):
    """Closed loop over whole cycles: (records, failures, wall seconds).

    ``Record.raw`` is an operation's wall time and ``Record.seconds`` the
    same time at the reference speed (see ``speed.py``).  Answers are
    checked as they arrive, outside the timed region, and then dropped, so
    memory does not grow with the number of answers; a traced pass checks
    after the loop instead, so that the checks leave no spans.
    """
    for op in set(cycle):
        op.calls = 0
    records, failures, deferred = Records(), [], []
    probe.sample()
    start = perf_counter()
    n = 0
    while True:
        for op in cycle:
            k = op.calls
            op.calls += 1
            idx = k % len(op.inputs)
            x = op.inputs[idx]
            probe.maybe_sample()
            if tracer is not None:
                tracer.op = len(records)
                tracer.begin("op." + op.kind)
            t0 = perf_counter()
            try:
                answer, error = op.fn(x, k), None
            except Exception:  # a raising operation is a failed one; keep measuring
                answer, error = None, traceback.format_exc()
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end()
                deferred.append((op, idx, x, k, answer, error))
            else:
                reason = check_answer(op, x, k, answer, error)
                if reason is not None:
                    failures.append((op.kind, idx, k, reason))
            records.add(op, idx, k, n, t0, dt)
        n += 1
        if cycles is not None and n >= cycles:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    probe.sample()
    for op, idx, x, k, answer, error in deferred:
        reason = check_answer(op, x, k, answer, error)
        if reason is not None:
            failures.append((op.kind, idx, k, reason))
    records.seconds = array("d", (raw * probe.factor(start, start + raw) for start, raw in zip(records.start, records.raw)))
    return records, failures, wall


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_pct", "%"), ("_ratio", "ratio")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


def run_record() -> dict:
    src_lines = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    revision = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": revision,
        "src_lines": src_lines,
    }


def measure_setup(wl, probe, reps: int) -> tuple[float, float]:
    """Median over ``reps`` set-ups of import (fresh process), inputs and
    warm-up: (at reference speed, raw)."""
    import workloads

    scaled, raw = [], []
    for _ in range(reps):
        imported, imported_raw = workloads.import_seconds() if wl.in_process else (0.0, 0.0)
        _, work, work_raw = probe.timed(lambda: (wl.generate(), wl.warm()))
        scaled.append(imported + work)
        raw.append(imported_raw + work_raw)
    return median(scaled), median(raw)


def run_workload(args) -> int:
    import tracing
    import workloads
    from speed import SpeedProbe

    probe = SpeedProbe()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    setup_s, setup_raw_s = measure_setup(wl, probe, 1 if args.smoke else SETUP_REPS)
    wl.prepare()
    cycle = wl.cycle()
    os.makedirs(workloads.OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        cycles = 1 if args.smoke else wl.trace_cycles
        plain, failures, _ = run_cycles(cycle, probe, cycles=cycles)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced, traced_failures, _ = run_cycles(cycle, probe, cycles=cycles, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(workloads.OUT, f"spans-{tag}.json"))
        records = list(plain) + list(traced)
        failures += traced_failures
        plain_s = sum(r.seconds for r in plain)
        traced_s = sum(r.seconds for r in traced)
        values = tracing.layer_metrics(tracer)
        values.update({f"cli.command_ms.{sub}": 0.0 for sub in workloads.CLI_SUBCOMMANDS})
        values.update(wl.cli_layers(traced, probe))
        values.update(workloads.interpreter_layers(probe, 1 if args.smoke else 5))
        values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        details = {"traced_s": (traced_s, "s"), "untraced_s": (plain_s, "s")}
    else:
        records, failures, wall = run_cycles(cycle, probe, seconds=args.seconds)
        peak_mb = peak_rss_mb(children=not wl.in_process)
        value, pct, n = workloads.tail(records.seconds)
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_mb,
            "ops_per_s": len(records) / sum(records.seconds),
            "latency_p50_ms": 1000 * median(records.seconds),
        }
        # Reported, not gated: the 11th-slowest operation of a run moves by
        # 10-30 % between seeds on a shared host, beyond any usable bound.
        details = dict(wl.details(records))
        details["latency_tail_ms"] = (1000 * value, "ms")
        details["latency_tail_percentile"] = (pct, "%")
        details["latency_samples"] = (n, "count")
        details["cycles"] = (records.cycle[-1] + 1, "count")
        details["wall_s"] = (wall, "s")
        details["raw_setup_s"] = (setup_raw_s, "s")
        details["raw_ops_per_s"] = (len(records) / sum(records.raw), "1/s")
        details["raw_latency_p50_ms"] = (1000 * median(records.raw), "ms")
        details["raw_latency_tail_ms"] = (1000 * workloads.tail(records.raw)[0], "ms")
        details["speed_factor"] = (median(probe.cost) / REFERENCE_KERNEL_S, "ratio")

    failed = len(failures)
    for kind, idx, k, reason in failures[:5]:
        sys.stderr.write(f"FAILED {kind} input {idx} call {k}: {reason}\n")
    details["failed_share"] = (failed / len(records), "ratio")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
    }
    record = run_record()
    with open(os.path.join(workloads.OUT, f"run-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "run": record, "details": details, "result": result}, fh, indent=1)
    print(f"run {args.workload} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in record.items()))
    for name, (v, unit) in details.items():
        print(f"detail {name} {v} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up and memory stay separate."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"workload {name} exited {proc.returncode}\n")
            return 1
        print("\n".join(f"{name}: {line}" for line in lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one minimal cycle per workload")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "horncalc", "__init__.py")):
        sys.stderr.write(f"horncalc sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    import horncalc

    if not os.path.abspath(horncalc.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"imported horncalc from {horncalc.__file__}, not from {SRC}\n")
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
