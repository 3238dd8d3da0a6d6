"""Benchmark of the isoptic library and CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is ``src/isoptic`` next to this directory.  Each run
is one closed loop with one caller.  With ``--trace 0`` it times the
workload's ops for S seconds and prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over a fixed list of
ops for S seconds and prints the per-layer metrics.  Every op's output is
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; WORKLOADS.md
describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path

from speed import SpeedLog, pin_to_one_core

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "isoptic" / "__init__.py").is_file():
    sys.exit(f"error: no isoptic sources at {SRC}")
sys.path.insert(0, str(SRC))

import accuracy  # noqa: E402  (these import isoptic from SRC)
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from isoptic.verify import INVARIANTS  # noqa: E402
PROBES = 5  # cold starts per measurement; the median is reported
MODULES = ("kernel", "quad", "verify", "render", "cli")


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_children(argv: list, log: SpeedLog) -> list[tuple[float, float, bytes]]:
    """Run argv PROBES times: (speed factor, wall seconds, output) of each."""
    runs = []
    log.sample()
    for _ in range(PROBES):
        t0 = time.perf_counter_ns()
        code, out, seconds, _ = workloads.run_child(argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}: {out.decode(errors='replace')}")
        runs.append((t0, time.perf_counter_ns(), seconds, out))
        log.sample()
    return [(log.factor(t0, t1), seconds, out) for t0, t1, seconds, out in runs]


def probe_seconds(log: SpeedLog, *args: str) -> float:
    """Median over PROBES fresh interpreters of the seconds that
    ``probe.py args`` reports, speed-adjusted."""
    runs = run_children([sys.executable, str(BENCH / "probe.py"), *args], log)
    return statistics.median(float(out.split()[-1]) * f for f, _, out in runs)


def setup_seconds(name: str, seed: int, log: SpeedLog) -> float:
    workdir = OUT / "probe"
    try:
        return probe_seconds(log, "setup", name, str(seed), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def interpreter_seconds(log: SpeedLog) -> float:
    """Median wall time of a bare interpreter start; not adjusted, since it
    is the reference that adjusts the other child-process times."""
    runs = run_children([sys.executable, "-c", "pass"], log)
    return statistics.median(seconds for _, seconds, _ in runs)


class Accuracy:
    """Oracle comparison of ``analyze`` on a list of quadrilaterals."""

    def __init__(self, quads):
        self.inputs = [workloads.vertices(q) for q in quads]
        self.refs = [oracle.evaluate(v) for v in self.inputs]
        self.errors = []
        for vertices, ref in zip(self.inputs, self.refs):
            try:
                self.errors.append(accuracy.errors(workloads.analyze_vertices(vertices), ref))
            except Exception:  # any exception escaping analyze is a miss
                self.errors.append((math.inf,) * 3)
        self.missed = [accuracy.misses(e) for e in self.errors]

    def column(self, k: int) -> list:
        return [e[k] for e in self.errors]


class Tally:
    """Failed ops, counted once per distinct op of the workload's list.

    Whether an op fails depends on its input only, and the loops repeat the
    list as often as time allows, so each op counts once, however often it
    ran: the same seed gives the same ``attempted`` and ``failed`` on every
    run.  A repeat whose outcome differs from the op's first makes the run
    incorrect, as does any output check that fails.
    """

    def __init__(self):
        self.outcome = {}  # op index -> failed
        self.correct = True

    def add(self, wl, i: int, out: tuple) -> None:
        failed, correct = wl.check(i, out)
        first = self.outcome.setdefault(i, failed)
        self.correct &= correct and first == failed

    @property
    def attempted(self) -> int:
        return len(self.outcome)

    @property
    def failed(self) -> int:
        return sum(self.outcome.values())


def timed_run(wl, seconds: float, log: SpeedLog) -> dict:
    tally = Tally()
    raw, batch_of, bounds = array("d"), array("i"), []
    n, k = len(wl), 0
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    log.sample()
    while k < n or time.perf_counter_ns() < deadline:  # at least one whole pass
        batch = []
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < wl.batch_ns:
            batch.append((k % n, *workloads.run_op(wl, k % n)))
            k += 1
        bounds.append((t0, time.perf_counter_ns()))
        log.sample()
        for i, ns, out in batch:
            raw.append(ns)
            batch_of.append(len(bounds) - 1)
            tally.add(wl, i, out)
    factors = [log.factor(*b) for b in bounds]
    latencies = [ns * factors[b] for ns, b in zip(raw, batch_of)]
    rss = getattr(wl, "peak_rss_mb", 0.0) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    acc = wl.accuracy
    print(f"{len(raw)} timed ops over {n} distinct; raw times, not speed-adjusted: "
          f"{len(raw) / sum(raw) * 1e9:.6g} ops/s, "
          f"p50 {nearest_rank(raw, 0.50) / 1e3:.6g} us, "
          f"p90 {nearest_rank(raw, 0.90) / 1e3:.6g} us")
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies) * 1e9, "1/s"),
        "op_p50_us": (nearest_rank(latencies, 0.50) / 1e3, "us"),
        "op_p90_us": (nearest_rank(latencies, 0.90) / 1e3, "us"),
        "peak_rss_mb": (rss, "MiB"),
    }
    for k, key in enumerate("wsr"):
        metrics[f"{key}_err_log10"] = (accuracy.tail_in_eps(acc.column(k)), "log10eps")
    return {"tally": tally, "metrics": metrics}


def traced_pass(wl, ops: int, tally: Tally):
    """One pass over ops 0..ops-1 with the layers traced."""
    tracer = tracing.Tracer()
    if hasattr(wl, "traced_op"):  # the CLI child traces itself
        spans = OUT / "child-spans.json"
        for i in range(ops):
            spans.unlink(missing_ok=True)
            tally.add(wl, i, wl.summary(i, wl.traced_op(i, spans)))
            tracer.absorb(json.loads(spans.read_text()), i)
        return tracer
    with tracing.installed(tracer):
        for i in range(ops):
            with tracer.op_span(i):
                _, out = workloads.run_op(wl, i)
            tally.add(wl, i, out)
    return tracer


def untraced_pass(wl, ops: int, tally: Tally) -> None:
    for i in range(ops):
        tally.add(wl, i, workloads.run_op(wl, i)[1])


def src_lines(module: str) -> int:
    with open(SRC / "isoptic" / f"{module}.py") as fh:
        return sum(1 for _ in fh)


def traced_run(wl, seconds: float, seed: int, log: SpeedLog, children: SpeedLog) -> dict:
    """Alternate untraced and traced passes over the first ``trace_ops`` ops."""
    tally = Tally()
    ops = min(wl.trace_ops, len(wl))
    plain, traced, totals = [], [], []  # (start, end) and per-pass totals
    first = last = None
    deadline = time.perf_counter() + seconds
    log.sample()
    while first is None or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        untraced_pass(wl, ops, tally)
        plain.append((t0, time.perf_counter_ns()))
        log.sample()
        t0 = time.perf_counter_ns()
        last = traced_pass(wl, ops, tally)
        traced.append((t0, time.perf_counter_ns()))
        log.sample()
        totals.append(last.totals())
        first = first or last
    adjusted = lambda spans: [(t1 - t0) * log.factor(t0, t1) for t0, t1 in spans]
    totals = [{name: (calls, own * log.factor(*span)) for name, (calls, own) in t.items()}
              for t, span in zip(totals, traced)]

    def calls(name: str) -> float:
        return totals[0].get(name, (0, 0))[0] / ops

    def self_us(name: str) -> float:
        return statistics.median(t.get(name, (0, 0))[1] for t in totals) / ops / 1e3

    metrics = {}
    for layer in ("kernel", "quad"):
        for fn in tracing.LAYER_FUNCTIONS[layer]:
            metrics[f"{layer}.{fn}.calls"] = (calls(f"{layer}.{fn}"), "1/op")
            metrics[f"{layer}.{fn}.self_us"] = (self_us(f"{layer}.{fn}"), "us/op")
    for name in INVARIANTS:
        metrics[f"verify.{name}.self_us"] = (self_us(f"verify.{name}"), "us/op")
        metrics[f"verify.{name}.skipped"] = (first.skips.get(f"verify.{name}", 0) / ops,
                                             "1/op")
    metrics["verify.random_quadrilateral.self_us"] = (
        self_us("verify.random_quadrilateral"), "us/op")
    accepted = totals[0].get("verify.random_quadrilateral", (0, 0))[0]
    metrics["verify.draw.accept_ratio"] = (accepted / first.draws if first.draws else 0.0,
                                           "ratio")
    metrics["render.render_svg.calls"] = (calls("render.render_svg"), "1/op")
    metrics["render.render_svg.self_us"] = (self_us("render.render_svg"), "us/op")
    metrics["cli.import_ms"] = (1e3 * probe_seconds(children, "import"), "ms")
    metrics["cli.interpreter_ms"] = (1e3 * interpreter_seconds(children), "ms")
    for module in MODULES:
        metrics[f"{module}.src_lines"] = (src_lines(module), "lines")
    metrics["trace.overhead_ratio"] = (statistics.median(adjusted(traced))
                                       / statistics.median(adjusted(plain)), "ratio")
    metrics["failed_share"] = (tally.failed / tally.attempted, "ratio")
    acc = wl.accuracy
    fail_share, frame_err = accuracy.frame_pass(acc.inputs, acc.refs,
                                                workloads.analyze_vertices, seed)
    metrics["frame_fail_share"] = (fail_share, "ratio")
    metrics["frame_err_log10"] = (frame_err, "log10eps")
    for k, key in enumerate("wsr"):
        metrics[f"{key}_err_max_log10"] = (accuracy.in_eps(accuracy.largest(acc.column(k))),
                                           "log10eps")
    last.dump(OUT / f"{wl.name}-seed{seed}-spans.json")
    return {"tally": tally, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isoptic" / "__init__.py").is_file():
        print(f"error: no isoptic sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    pin_to_one_core()
    OUT.mkdir(exist_ok=True)
    children = SpeedLog(processes=True)
    setup_s = setup_seconds(args.workload, args.seed, children)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)
    wl.prepare(Accuracy)
    log = children if wl.in_children else SpeedLog()
    if args.trace:
        result = traced_run(wl, args.seconds, args.seed, log, children)
    else:
        result = timed_run(wl, args.seconds, log)
        result["metrics"]["setup_s"] = (setup_s, "s")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    tally = result["tally"]
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
