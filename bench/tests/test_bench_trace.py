"""The traced run: nesting, self times, repeatable counts, restoration."""

import json
import subprocess
import sys
from pathlib import Path

import isoptic.quad
import isoptic.verify
import tracing
import workloads
from isoptic.verify import CaseSpec, run_suite

BENCH = Path(__file__).resolve().parents[1]


def traced_ops():
    quads, _ = workloads.mixed_pool(3, 1)
    ops = [lambda q=q: isoptic.quad.analyze(q) for q in quads]
    ops += [lambda cls=cls: run_suite(CaseSpec(7, cls), 1)
            for cls in ("convex-noncyclic", "near-cyclic")]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for i, op in enumerate(ops):
            with tracer.op_span(i):
                op()
    return tracer, len(ops)


def test_spans_nest():
    tracer, _ = traced_ops()
    assert len(tracer) > 100
    for i in range(len(tracer)):
        p = tracer.parent[i]
        assert tracer.start[i] <= tracer.end[i]
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] and tracer.end[i] <= tracer.end[p]
            assert tracer.op[p] == tracer.op[i]
        else:
            assert tracer.names[tracer.name[i]] == tracing.OP


def test_self_times_sum_to_op_wall_time():
    tracer, n = traced_ops()
    own = tracer.self_times()
    for op in range(n):
        spans = [i for i in range(len(tracer)) if tracer.op[i] == op]
        root = [i for i in spans if tracer.parent[i] < 0]
        assert len(root) == 1
        assert all(own[i] >= 0 for i in spans)
        assert sum(own[i] for i in spans) == tracer.end[root[0]] - tracer.start[root[0]]


def test_calls_repeat_exactly():
    first, _ = traced_ops()
    second, _ = traced_ops()
    calls = lambda t: {name: c for name, (c, _) in t.totals().items()}
    assert calls(first) == calls(second)
    assert first.skips == second.skips and first.draws == second.draws
    assert calls(first)["quad.analyze"] == 8
    assert calls(first)["verify.w_agreement"] == 1


def test_wrappers_cover_importers_and_are_removed():
    originals = (isoptic.quad.classify, isoptic.verify.classify, isoptic.classify,
                 dict(isoptic.verify.INVARIANTS), isoptic.verify._draw)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert isoptic.verify.classify is isoptic.quad.classify is isoptic.classify
        assert isoptic.quad.classify is not originals[0]
    assert (isoptic.quad.classify, isoptic.verify.classify, isoptic.classify,
            dict(isoptic.verify.INVARIANTS), isoptic.verify._draw) == originals


def test_cli_child_spans(tmp_path):
    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps({"vertices": [[0, 0], [4, 0], [5, 3], [1, 4]]}))
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(BENCH / "cli_child.py"), str(spans),
                           "analyze", str(quad)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["w"]["kind"] == "point"
    tracer = tracing.Tracer()
    tracer.absorb(json.loads(spans.read_text()), 5)
    totals = tracer.totals()
    assert totals["quad.analyze"][0] == 1 and totals[tracing.OP][0] == 1
    assert set(tracer.op) == {5}


def test_run_refuses_without_sources(tmp_path):
    """Only the benchmark's own files present: exit non-zero, print no result."""
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench").mkdir(exist_ok=True)
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "analyze-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
