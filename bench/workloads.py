"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in ``__init__`` (the
set-up that ``setup_s`` times), runs one operation per ``op(i)`` call (the
timed part), reduces an operation's result to a small comparable value with
``summary`` and judges it with ``check`` (both untimed).  ``prepare`` does
the untimed work that checking needs: the reference pass, the 60-digit
oracle and the accuracy pass.  WORKLOADS.md says why each workload exists.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from isoptic import quad, verify
from isoptic.errors import GeometryError
from isoptic.kernel import AtInfinity, Point, is_finite
from isoptic.quad import (
    Quadrilateral,
    analyze,
    isoptic_point,
    next_generation,
    reconstruct_fourth_vertex,
)
from isoptic.render import render_svg
from isoptic.verify import SHAPE_CLASSES, CaseSpec, random_quadrilateral, run_suite

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

GENERIC = ("convex-noncyclic", "concave", "trapezoid")
SPECIAL = ("cyclic", "near-cyclic", "orthocentric", "parallelogram", "parallelogram-pi4")


def point(p) -> tuple:
    if isinstance(p, Point):
        return ("point", p.x, p.y)
    if isinstance(p, AtInfinity):
        return ("at-infinity", p.dx, p.dy)
    return ("undefined",)


def vertices(q) -> tuple:
    return tuple((v.x, v.y) for v in q.vertices())


def analysis(rep) -> tuple:
    """(r, W, S) of an AnalysisReport; r is None when it is NaN."""
    return (None if rep.r != rep.r else rep.r, point(rep.w), point(rep.s))


def analyze_vertices(vs) -> tuple:
    """``analysis(analyze(...))`` of four (x, y) pairs; raises what analyze raises."""
    return analysis(analyze(Quadrilateral(*(Point(x, y) for x, y in vs))))


def run_op(wl, i: int) -> tuple[int, tuple]:
    """Time op i of a workload: (ns, output summary)."""
    t0 = time.perf_counter_ns()
    try:
        result = wl.op(i)
    except Exception as exc:  # the loop goes on; check() counts it as failed
        return time.perf_counter_ns() - t0, ("raised", type(exc).__name__)
    ns = time.perf_counter_ns() - t0
    return ns, wl.summary(i, result)


def mixed_pool(seed: int, per_class: int) -> tuple[list, list]:
    """per_class quadrilaterals of every shape class, in shuffled order."""
    rng = random.Random(seed)
    order = [(cls, i) for cls in SHAPE_CLASSES for i in range(per_class)]
    rng.shuffle(order)
    quads = [random_quadrilateral(CaseSpec(seed, cls), i) for cls, i in order]
    return quads, [cls for cls, _ in order]


class InProcess:
    """Shared logic of the workloads whose op is a library call.  A subclass
    defines ``__len__``, ``op``, ``summary``, ``accuracy_quads`` and
    ``op_failed(i, out)``."""

    trace_ops = 0  # ops in one traced pass
    in_children = False  # ops run in child processes
    batch_ns = 30_000_000  # ops between two speed-reference samples

    def prepare(self, accuracy) -> None:
        """Reference pass (also the warm-up) and accuracy pass."""
        self.reference = [run_op(self, i)[1] for i in range(len(self))]
        self.accuracy = accuracy(self.accuracy_quads())

    def check(self, i: int, out: tuple) -> tuple[bool, bool]:
        """(failed, correct): an output that differs from the reference
        pass's output for the same input makes the run incorrect."""
        failed = out[0] == "raised" or self.op_failed(i, out)
        return failed, out == self.reference[i]


class AnalyzeMix(InProcess):
    name = "analyze-mix"
    per_class = 100
    trace_ops = 200

    def __init__(self, seed: int, workdir: Path):
        self.quads, _ = mixed_pool(seed, self.per_class)

    def __len__(self):
        return len(self.quads)

    def op(self, i):
        # through the module, so that the traced run's wrapper is called
        return quad.analyze(self.quads[i])

    def summary(self, i, result):
        return analysis(result)

    def accuracy_quads(self):
        return self.quads

    def op_failed(self, i, out):
        return self.accuracy.missed[i]


class VerifyCases(InProcess):
    """One op is one verify case: ``run_suite(CaseSpec(seed_i, cls), 1)``."""

    classes: tuple = ()
    cases = 300
    # the accuracy pass also covers the quadrilaterals of further cases
    # drawn the same way, so that its tail figure is steady from seed to seed
    accuracy_cases = 300
    trace_ops = 60

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        n = max(self.cases, self.accuracy_cases)
        self.all_specs = [CaseSpec(rng.randrange(1 << 30), self.classes[i % len(self.classes)])
                          for i in range(n)]
        self.specs = self.all_specs[:self.cases]
        rng.shuffle(self.specs)

    def __len__(self):
        return len(self.specs)

    def op(self, i):
        return verify.run_suite(self.specs[i], 1)

    def summary(self, i, result):
        return (result.failures, result.errors,
                tuple((name, s.cases_run, s.skipped, s.failures, s.max_residual)
                      for name, s in sorted(result.invariants.items())))

    def accuracy_quads(self):
        quads = []
        for spec in self.all_specs[:self.accuracy_cases]:
            try:
                quads.append(random_quadrilateral(spec, 0))
            except GeometryError:
                continue  # the op reports this case as an error
        return quads

    def op_failed(self, i, out):
        return out[0] > 0 or out[1] > 0


class VerifyGeneric(VerifyCases):
    name = "verify-generic"
    classes = GENERIC
    cases = 1200  # case costs vary widely here; a larger pool steadies the mean
    accuracy_cases = 3600
    trace_ops = 30


class VerifySpecial(VerifyCases):
    name = "verify-special"
    classes = SPECIAL
    accuracy_cases = 900


# ---------------------------------------------------------------------------
# cold CLI


def _xy(p) -> str:
    return f"{p.x!r},{p.y!r}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list) -> tuple[int, bytes, float, float]:
    """Run a child to completion: (exit code, stdout+stderr, seconds, peak
    RSS in MiB of that child alone)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, seconds, usage.ru_maxrss / 1024.0


class CliCold:
    """One op is one cold ``python -m isoptic.cli`` process."""

    name = "cli-cold"
    in_children = True
    batch_ns = 500_000_000
    kinds = ("analyze", "iterate", "render", "reconstruct", "verify")
    # two inputs per shape class: one pass over the 80 ops fits in a run, so
    # every run checks every op, the near-cyclic ones included
    per_class = 2
    # the accuracy pass covers 50 per class drawn the same way (the inputs
    # above among them), so that its tail figure is steady from seed to seed
    accuracy_per_class = 50
    layers = "quad,triads,cs,w,s,simson"
    generations = 3
    verify_cases = 2
    trace_ops = 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.quads, self.classes = mixed_pool(seed, self.per_class)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        self.anchor = []  # the fourth-vertex reconstruction's --w point
        for j, q in enumerate(self.quads):
            path = workdir / f"quad{j}.json"
            path.write_text(json.dumps({"vertices": [list(v) for v in vertices(q)]}))
            self.files.append(str(path))
            try:
                w = isoptic_point(q)
            except GeometryError:
                w = None
            self.anchor.append(w if w is not None and is_finite(w) else q.centroid())
        self.svg = str(workdir / "figure.svg")
        self.expected = {}
        self.peak_rss_mb = 0.0  # of the largest CLI child

    def __len__(self):
        return len(self.kinds) * len(self.quads)

    def args(self, i: int) -> list:
        kind = self.kinds[i % len(self.kinds)]
        j = (i // len(self.kinds)) % len(self.quads)
        q, path = self.quads[j], self.files[j]
        if kind == "analyze":
            return ["analyze", path]
        if kind == "iterate":
            return ["iterate", path, "--generations", str(self.generations)]
        if kind == "render":
            return ["render", path, "--out", self.svg, "--layers", self.layers]
        if kind == "reconstruct":
            return ["reconstruct", "--mode", "fourth-vertex", f"--a={_xy(q.a)}",
                    f"--b={_xy(q.b)}", f"--c={_xy(q.c)}", f"--w={_xy(self.anchor[j])}"]
        return ["verify", "--cases", str(self.verify_cases), "--seed", str(j),
                "--class", self.classes[j]]

    def op(self, i: int):
        result = run_child([sys.executable, "-m", "isoptic.cli"] + self.args(i))
        self.peak_rss_mb = max(self.peak_rss_mb, result[3])
        return result

    def traced_op(self, i: int, spans: Path):
        return run_child([sys.executable, str(BENCH / "cli_child.py"), str(spans)]
                         + self.args(i))

    def summary(self, i, result) -> tuple:
        code, out, _, _ = result
        if self.kinds[i % len(self.kinds)] == "render" and code == 0:
            out = Path(self.svg).read_bytes()
        return (code, out)

    def accuracy_quads(self):
        return mixed_pool(self.seed, self.accuracy_per_class)[0]

    def prepare(self, accuracy) -> None:
        self.accuracy = accuracy(self.accuracy_quads())

    def _expect(self, i: int) -> tuple:
        """(exit code, comparable output) of the op computed in-process."""
        kind = self.kinds[i % len(self.kinds)]
        j = (i // len(self.kinds)) % len(self.quads)
        q = self.quads[j]
        try:
            if kind == "analyze":
                return 0, analysis(analyze(q))
            if kind == "iterate":
                gens, code = [vertices(q)], 0
                try:
                    cur = q
                    for _ in range(self.generations):
                        cur = next_generation(cur)
                        gens.append(vertices(cur))
                except GeometryError:
                    code = 2
                return code, [[list(v) for v in g] for g in gens]
            if kind == "render":
                return 0, render_svg(q, tuple(self.layers.split(",")), tol=1e-9).encode()
            if kind == "reconstruct":
                d = reconstruct_fourth_vertex(q.a, q.b, q.c, self.anchor[j])
                # the CLI also rebuilds the quadrilateral and its W for a residual
                isoptic_point(Quadrilateral(q.a, q.b, q.c, d))
                return 0, [d.x, d.y]
            report = run_suite(CaseSpec(j, self.classes[j]), self.verify_cases)
            return min(report.failures, 125), report.to_dict()
        except GeometryError:
            return 2, None
        except ValueError:
            return 1, None

    def _observed(self, kind: str, out: bytes):
        if kind == "render":
            return out
        doc = json.loads(out)
        if kind == "analyze":
            def pt(p):
                if p["kind"] == "point":
                    return ("point", *p["xy"])
                if p["kind"] == "at-infinity":
                    return ("at-infinity", *p["direction"])
                return ("undefined",)
            return (doc["r"], pt(doc["w"]), pt(doc["s"]))
        if kind == "iterate":
            return doc["generations"]
        if kind == "reconstruct":
            return doc["point"]
        doc.pop("tool_version")
        return doc

    def check(self, i: int, out: tuple) -> tuple[bool, bool]:
        if out[0] == "raised":
            return True, True
        if i % len(self) not in self.expected:
            self.expected[i % len(self)] = self._expect(i)
        code, expected = self.expected[i % len(self)]
        got_code, raw = out
        kind = self.kinds[i % len(self.kinds)]
        if got_code != code:
            return True, True
        failed = kind == "verify" and code != 0
        if expected is None:
            return failed, True
        try:
            correct = self._observed(kind, raw) == expected
        except (ValueError, KeyError, TypeError):
            correct = False
        return failed, correct


WORKLOADS = {cls.name: cls for cls in (AnalyzeMix, VerifyGeneric, VerifySpecial, CliCold)}
