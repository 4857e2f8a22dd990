"""Benchmark of the lefschetz-locus CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  Each workload is a closed loop in one process and one thread:
one operation is one report, made by calling ``lefschetz_locus.cli.main``
in-process with a fresh seed, capturing and parsing its JSON and checking
it (``check.py``) before the next one starts.  A reference loop
(``refloop.py``) is timed between and inside the calls, and every time is
scaled by the samples taken next to it, so that drift of a shared host
cancels.  ``--trace 1`` makes each report twice, untraced and then traced,
and prints the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Results and spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import spans
from refloop import HALVES, RefLoop, Timeline

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
PACKAGE = "lefschetz_locus"
PRIME = 65521  # the CLI's default prime; line coordinates are drawn below it
BLOCK_S = 0.2  # program time between two reference-loop boundaries
SETUP_PROBES = 7


def _locus_op(a: str):
    expect = {"degrees": {"a": [int(x) for x in a.split(",")], "b": [0]}}

    def op(k: int, rng: random.Random):
        return [(["locus", "--a", a, "--b", "0", "--seed", str(k)], "locus", expect)]

    return op


def _survey_op(k: int, rng: random.Random):
    return [
        (["survey", "--grid", "ci:2-4", "--localization", "--seed", str(k)], "survey",
         {"fixtures": 10}),
        (["survey", "--grid", "n2", "--localization", "--seed", str(k)], "survey",
         {"fixtures": 5}),
    ]


def _line_op(k: int, rng: random.Random):
    line = [0, 0, 0]
    while not any(line):
        line = [rng.randrange(PRIME) for _ in range(3)]
    argv = ["line", "--a", "2,2,3,3", "--b", "0,1", "--seed", str(k),
            "--line", ",".join(map(str, line))]
    return [(argv, "line", {"degrees": {"a": [2, 2, 3, 3], "b": [0, 1]}, "line": line})]


WORKLOADS = {
    "locus-points": _locus_op("3,4,4"),
    "locus-curve": _locus_op("4,4,4"),
    "survey-localization": _survey_op,
    "lines": _line_op,
}

# The half of the reference loop that each workload's time follows (README,
# "Reference loop"): the first three are dict arithmetic in pure Python,
# `lines` is mostly small numpy eliminations.  Setup follows "dict".
HALF = {"locus-points": "dict", "locus-curve": "dict", "survey-localization": "dict",
        "lines": "numpy"}


class Inputs:
    """Operation i of a run uses report seed k = base + i, with base drawn
    from --seed, so seeds are distinct within a run; a `lines` operation
    draws its line from a stream seeded by k."""

    def __init__(self, workload: str, seed: int) -> None:
        self.base = random.Random(seed).randrange(1, 2**30)
        self.op = WORKLOADS[workload]

    def calls(self, i: int):
        k = self.base + i
        return self.op(k, random.Random(k))


def setup(workload: str, seed: int):
    """Import numpy and the program from this checkout; make the inputs."""
    os.environ.pop("LL_PRIME", None)  # the CLI's default prime, whatever the shell says
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} imported from {cli.__file__}, not from {SRC}")
    inputs = Inputs(workload, seed)
    return cli, inputs


def probe_setup(workload: str, seed: int, timeline: Timeline) -> list[list[float]]:
    """Times from starting a fresh interpreter on this script until its
    setup is done; one untimed warm-up, then SETUP_PROBES timed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", workload, "--seed", str(seed)]

    def probe():
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")

    # Leaving the `with` waits for the probe to exit, so its time is until
    # "ready" plus interpreter shutdown, the same on every commit.
    return [timeline.run(probe)[1] for _ in range(SETUP_PROBES + 1)][1:]


def invoke(cli, argv, tracer, timeline: Timeline):
    """One CLI call: ([raw, scaled] seconds, exit code, report, problems)."""
    buf = io.StringIO()
    problems: list[str] = []

    def call():
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    return cli.main(argv)
                with tracer.span("cli"):
                    return cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            problems.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    code, item = timeline.run(call)
    lines = buf.getvalue().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        report = {}
        problems.append("stdout is not JSON")
    return item, code, report, problems


def checked(kind: str, report: dict, code, expect: dict) -> list[str]:
    try:
        return check.CHECKS[kind](report, code, expect)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def self_test(results) -> tuple[int, int]:
    """Feed damaged copies of passing reports to the checker; return
    (damaged reports, reports counted as failed)."""
    total = caught = 0
    for kind, report, code, expect in results:
        for name, damaged, damaged_code in check.corruptions(kind, report, code):
            total += 1
            if checked(kind, damaged, damaged_code, expect):
                caught += 1
            else:
                print(f"self-test: a {kind} report with a {name} passed the checks",
                      file=sys.stderr)
    return total, caught


def _total(items, k: int) -> float:
    """Raw (k=0) or scaled (k=1) seconds of one report's calls."""
    return sum(i[k] for i in items)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    ref = RefLoop()
    setup_times = probe_setup(workload, seed, Timeline(ref, 0.0, during=False, half="dict"))
    cli, inputs = setup(workload, seed)
    timeline = Timeline(ref, BLOCK_S, during=True, half=HALF[workload])
    tracer = spans.Tracer(PACKAGE, timeline.clock) if traced else None
    plain: list[list[list[float]]] = []  # per report, [raw, scaled] of each call
    traced_ops: list[tuple[list[list[float]], dict, dict]] = []
    trace_log: list[dict] = []
    attempted = failed = 0
    selftest = None
    t_start, origin = time.perf_counter(), timeline.clock()
    while True:
        # Traced runs make each report twice, untraced and then traced, so
        # that the tracing overhead is a paired difference.
        trace_op = traced and attempted % 2 == 1
        if trace_op:
            tracer.install()
        items, op_problems, results = [], [], []
        for argv, kind, expect in inputs.calls(attempted // 2 if traced else attempted):
            item, code, report, problems = invoke(cli, argv, tracer if trace_op else None,
                                                  timeline)
            items.append(item)
            problems += checked(kind, report, code, expect)
            if not problems:
                results.append((kind, report, code, expect))
            op_problems += [f"{' '.join(argv)}: {p}" for p in problems]
        if trace_op:
            tracer.uninstall()
            self_time, counts, op_spans = tracer.take()
            traced_ops.append((items, self_time, counts))
            trace_log.append({"op": attempted, "spans": [
                [n, s - origin, e - origin, p] for n, s, e, p in op_spans]})
        else:
            plain.append(items)
        attempted += 1
        if op_problems:
            failed += 1
            print("FAILED " + "; ".join(op_problems), file=sys.stderr)
        elif selftest is None:
            selftest = self_test(results)
        if time.perf_counter() - t_start >= seconds and not (traced and attempted % 2):
            break
    timeline.close()

    raw = [_total(items, 0) for items in plain]
    scaled = [_total(items, 1) for items in plain]
    if traced:
        metrics = layer_metrics(traced_ops, ref, HALF[workload], plain)
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(trace_log))
    else:
        metrics = {
            "setup_s": (statistics.median(i[1] for i in setup_times), "s"),
            "report_p50_s": (statistics.median(scaled), "s"),
            "reports_per_s": (len(scaled) / sum(scaled), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    if selftest is not None:
        print(f"self-test: {selftest[1]}/{selftest[0]} damaged reports counted as failed",
              file=sys.stderr)
    print(f"{workload}: {attempted} reports, {failed} failed; raw report p50 "
          f"{statistics.median(raw):.4f} s, raw setup p50 "
          f"{statistics.median(i[0] for i in setup_times):.4f} s; {len(ref.samples)} "
          f"reference samples, median {statistics.median(map(sum, ref.samples)):.6f} s",
          file=sys.stderr)
    return {
        "correct": selftest is not None and selftest[0] == selftest[1] > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(traced_ops, ref: RefLoop, half: str, plain) -> dict:
    """Per traced report: self time per layer, scaled like the report that
    holds it, and counters; each metric is the median over reports."""
    med = statistics.median
    out = {}
    for span_name in spans.SPAN_NAMES:
        name = "cli.self_s" if span_name == "cli" else f"{span_name}_s"
        out[name] = (med(st[span_name] * _total(items, 1) / _total(items, 0)
                         for items, st, _ in traced_ops), "s")
    for counter in spans.COUNTER_NAMES:
        if counter == "presentation.modules":
            continue
        if counter == "presentation.draws":  # per module built
            values = [c[counter] / c["presentation.modules"] if c["presentation.modules"] else 0
                      for _, _, c in traced_ops]
        else:
            values = [c[counter] for _, _, c in traced_ops]
        out[counter] = (med(values), "count")
    out["host.ref_loop_s"] = (med(t[HALVES.index(half)] for t in ref.samples), "s")
    out["host.raw_report_p50_s"] = (med(_total(items, 0) for items in plain), "s")
    out["trace.overhead_s"] = (med(_total(t, 1) - _total(u, 1) for (t, _, _), u
                                   in zip(traced_ops, plain)), "s")
    width = max(map(len, out))
    for name, (value, unit) in out.items():
        print(f"  {name:<{width}}  {value:>12.6g} {unit}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        setup(args.workload, args.seed)[1].calls(0)
        print("ready", flush=True)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
