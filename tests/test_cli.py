import hashlib
import json
import math
import os
import random
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

import isoptic.cli
from isoptic.cli import (
    COMMANDS,
    EXIT_DEGENERATE,
    EXIT_FAILURES,
    UsageError,
    load_quad_file,
    main,
    parse_args,
)
from isoptic.render import LAYERS
from isoptic.verify import SHAPE_CLASSES, CaseSpec, random_quadrilateral

GENERIC = {"vertices": [[0, 0], [4, 0], [5, 3], [1, 4]]}
SQUARE = {"vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}
# the least triad height, of ABC, is 1e-7 of the diameter
THIN = {"vertices": [[0, 0], [1, 0], [2, 5.657e-7], [0, 2]]}
# D is 1e-6 off the circle through A, B and C: cyclic at tol 1e-3
NEAR_SQUARE = {"vertices": [[1, 0], [0, 1], [-1, 0], [0, -1 - 1e-6]]}
# (2, 1e-4) is nearly on line AB: flat at tol 1e-3
FLAT = {"vertices": [[0, 0], [1, 0], [2, 1e-4], [0, 1]]}
# convex and noncyclic at tol 1e-9 (D lies 8.5e-9 diameters off the circle
# through A, B and C), with two triad centers inside the concentric cut
NEAR_CYCLIC = {"vertices": [[0.41348789198651636, 0.0862118324355335],
                            [0.38305962130541477, 0.17104623209910355],
                            [-0.5136510949453672, 0.31768669074549866],
                            [-0.28289641834656376, -0.5749447552801357]]}
# sha256 of the exit code and --out text of every iterate run of
# TestIterate.test_reports_are_pinned, in order.  Four runs, NEAR_SQUARE and the
# near-cyclic draw forward 4 at tol 1e-9 and the concave draw backward 300 at both
# tols, reach a generation whose vertices round together: they end there with
# exit 2 and a degeneration entry, which names the generation it could not build
ITERATE_SHA256 = "1a5bb515437712e37794417a354b2cd4bfff903d695963b22c322b9f4f8d131b"


@pytest.fixture
def quad_file(tmp_path):
    def write(payload, name="quad.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


class TestAnalyze:
    def test_generic(self, quad_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", quad_file(GENERIC), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["w"]["kind"] == "point"
        assert doc["s"]["kind"] == "point"
        assert doc["r"] == pytest.approx(-0.02724358974358974, abs=1e-12)
        assert doc["input"]["vertices"] == [[0, 0], [4, 0], [5, 3], [1, 4]]
        assert all(v >= 0 for v in doc["residuals"].values())

    def test_square_is_cyclic(self, quad_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", quad_file(SQUARE), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["shape"]["cyclic"]
        assert abs(doc["r"]) < 1e-9
        assert doc["w"]["xy"] == [0.0, 0.0]

    def test_orthocentric_w_at_infinity(self, quad_file, tmp_path):
        # (0,0),(4,0),(1,3) and their orthocenter
        quad = {"vertices": [[0, 0], [4, 0], [1, 3], [1, 1]]}
        out = tmp_path / "report.json"
        assert main(["analyze", quad_file(quad), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["w"]["kind"] == "at-infinity"
        dx, dy = doc["w"]["direction"]
        assert math.hypot(dx, dy) == pytest.approx(1.0, abs=1e-12)

    def test_three_vertices_exit_1(self, quad_file):
        assert main(["analyze", quad_file({"vertices": [[0, 0], [1, 0], [0, 1]]})]) == 1

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [[0,0],[1,0],[0,1],[NaN,1]]}')
        assert main(["analyze", str(path)]) == 1

    @pytest.mark.parametrize("coordinate", ["1e400", "1" + "0" * 400], ids=["float", "integer"])
    def test_nonfinite_rejected(self, tmp_path, capsys, coordinate):
        # a float literal overflows to inf; an integer literal is exact and
        # too large for a float
        path = tmp_path / "big.json"
        path.write_text(f'{{"vertices": [[0,0],[1,0],[0,1],[{coordinate},1]]}}')
        assert main(["analyze", str(path)]) == 1
        assert "error: vertex coordinates must be finite" in capsys.readouterr().err

    def test_degenerate_quad_exit_2(self, quad_file):
        collinear = {"vertices": [[0, 0], [1, 0], [2, 0], [0, 3]]}
        assert main(["analyze", quad_file(collinear)]) == 2

    @pytest.mark.parametrize("offset, code", [(1e5, 0), (1e9, 0), (1e12, 0)])
    def test_offset_generic(self, quad_file, tmp_path, offset, code):
        shifted = {"vertices": [[x + offset, y + offset] for x, y in GENERIC["vertices"]]}
        out0, out = tmp_path / "r0.json", tmp_path / "r.json"
        assert main(["analyze", quad_file(GENERIC), "--out", str(out0)]) == 0
        assert main(["analyze", quad_file(shifted, "shifted.json"),
                     "--out", str(out)]) == code
        if code == 0:
            x0, y0 = json.loads(out0.read_text())["w"]["xy"]
            x, y = json.loads(out.read_text())["w"]["xy"]
            diameter = math.sqrt(34.0)
            err = math.hypot(x - x0 - offset, y - y0 - offset) / diameter
            assert err <= 10 * sys.float_info.epsilon * offset / diameter

    @pytest.mark.parametrize("factor", [1e-140, 1e140])
    def test_extreme_scale_generic(self, quad_file, tmp_path, factor):
        scaled = {"vertices": [[x * factor, y * factor] for x, y in GENERIC["vertices"]]}
        out0, out = tmp_path / "r0.json", tmp_path / "r.json"
        assert main(["analyze", quad_file(GENERIC), "--out", str(out0)]) == 0
        assert main(["analyze", quad_file(scaled, "scaled.json"), "--out", str(out)]) == 0
        x0, y0 = json.loads(out0.read_text())["w"]["xy"]
        x, y = json.loads(out.read_text())["w"]["xy"]
        assert math.hypot(x / factor - x0, y / factor - y0) <= 1e-14 * math.sqrt(34.0)

    @pytest.mark.parametrize("vertices", [
        [[0, 0], [1e-320, 0], [1e-320, 1e-320], [0, 1e-320]],
        [[0, 0], [0, 0], [0, 0], [0, 2.2e-321]],
    ], ids=["subnormal-square", "three-coincident"])
    def test_subnormal_input_reports_or_is_degenerate(self, quad_file, vertices):
        # the frame unit of the square was 2^1065, past the largest float, and
        # tol * diameter of the coincident vertices underflowed to 0
        assert main(["analyze", quad_file({"vertices": vertices})]) in (0, 2)

    def test_roundtrip_17_digits(self, quad_file, tmp_path):
        quad = {"vertices": [[0.1, 0.2], [4.3, 0.7], [5.9, 3.1], [1.4, 4.8]]}
        out = tmp_path / "report.json"
        main(["analyze", quad_file(quad), "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["input"]["vertices"] == quad["vertices"]

    def test_validates_at_the_callers_tol(self, quad_file):
        path = quad_file(THIN)
        q = load_quad_file(path)
        assert q.min_triad_height() / q.scale() == pytest.approx(1e-7, rel=1e-3)
        assert main(["analyze", path]) == 0
        assert main(["analyze", path, "--tol", "1e-6"]) == EXIT_DEGENERATE

    def test_zero_area_bowtie_has_no_area_ratio(self, quad_file, tmp_path):
        # AC is parallel to BD, so the two lobes cancel to signed area 0
        bowtie = {"vertices": [[0, 0], [3, 1], [2, 0], [0, 1]]}
        out = tmp_path / "report.json"
        assert main(["analyze", quad_file(bowtie), "--out", str(out)]) == 0
        assert "area_ratio" not in json.loads(out.read_text())["residuals"]

    def test_near_cyclic_input_inside_the_concentric_cut_has_no_six_cs(self, quad_file,
                                                                        tmp_path):
        # the six circles of similitude are undefined where two triad centers
        # coincide within tol; the report omits them and keeps every other residual
        out = tmp_path / "report.json"
        assert main(["analyze", quad_file(NEAR_CYCLIC), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert not doc["shape"]["cyclic"]
        assert sorted(doc["residuals"]) == ["angle_sums", "area_ratio", "isodynamic",
                                            "isoptic_spread", "pedal_s_collinear",
                                            "pedal_w_parallelogram"]


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_bad_tol_is_a_usage_error(quad_file, capsys, command, tol):
    # 0 ended in a ZeroDivisionError traceback, -1 in "math domain error",
    # and verify passed every case at nan, where no residual exceeds it
    args = ([command, quad_file(GENERIC)] if command == "analyze" else
            [command, "--cases", "3", "--seed", "1", "--class", "convex-noncyclic"])
    assert main(args + ["--tol", tol]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"isoptic {command}: error: argument --tol: must be finite and > 0, got {tol!r}"]


class TestIterate:
    def test_forward(self, quad_file, tmp_path):
        out = tmp_path / "it.json"
        rc = main(["iterate", quad_file(GENERIC), "--generations", "5",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["generations"]) == 6
        for ratio in doc["area_ratios"]:
            assert ratio == pytest.approx(0.02724358974358974, abs=1e-9)

    def test_cyclic_degeneration(self, quad_file, tmp_path):
        out = tmp_path / "it.json"
        rc = main(["iterate", quad_file(SQUARE), "--generations", "1",
                   "--out", str(out)])
        assert rc == 2
        doc = json.loads(out.read_text())
        assert doc["degeneration"]["reason"] == "cyclic"
        assert doc["degeneration"]["point"]["xy"] == [0.0, 0.0]
        assert doc["degeneration"]["generation"] == 1

    def test_a_stopped_run_names_the_generation_it_could_not_build(self, quad_file, tmp_path):
        # the README quadrilateral's generation 21 rounds to one point: the run
        # prints generations 0 to 20 and names 21, in either direction's index
        out = tmp_path / "it.json"
        assert main(["iterate", quad_file(GENERIC), "--generations", "22",
                     "--out", str(out)]) == EXIT_DEGENERATE
        doc = json.loads(out.read_text())
        assert len(doc["generations"]) == 21 and len(doc["area_ratios"]) == 20
        assert doc["degeneration"] == {"generation": 21, "reason": "CollinearInput",
                                       "message": "the vertices of this generation round together"}
        q = random_quadrilateral(CaseSpec(3, "trapezoid"), 1)
        path = quad_file({"vertices": [[v.x, v.y] for v in q.vertices()]})
        assert main(["iterate", path, "--generations", "300", "--direction", "backward",
                     "--out", str(out)]) == EXIT_DEGENERATE
        doc = json.loads(out.read_text())
        assert doc["degeneration"]["generation"] == len(doc["generations"]) == 204

    def test_backward_from_cyclic_input(self, quad_file, tmp_path):
        # a cyclic quadrilateral is no quadrilateral's second generation: the
        # same degeneration as forward, with the circumcenter
        docs = {}
        for direction in ("forward", "backward"):
            out = tmp_path / f"{direction}.json"
            rc = main(["iterate", quad_file(SQUARE), "--generations", "1",
                       "--direction", direction, "--out", str(out)])
            assert rc == 2
            docs[direction] = json.loads(out.read_text())
        doc = docs["backward"]
        assert doc["degeneration"] == docs["forward"]["degeneration"]
        assert doc["degeneration"]["reason"] == "cyclic"
        assert doc["degeneration"]["point"]["xy"] == [0.0, 0.0]
        assert len(doc["generations"]) == 1

    def test_forward_backward_roundtrip(self, quad_file, tmp_path):
        fwd = tmp_path / "fwd.json"
        main(["iterate", quad_file(GENERIC), "--generations", "2",
              "--out", str(fwd)])
        last = json.loads(fwd.read_text())["generations"][-1]
        back = tmp_path / "back.json"
        main(["iterate", quad_file({"vertices": last}, "mid.json"),
              "--generations", "2", "--direction", "backward",
              "--out", str(back)])
        recovered = json.loads(back.read_text())["generations"][-1]
        for got, want in zip(recovered, GENERIC["vertices"]):
            assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-8

    @pytest.mark.parametrize("vertices", [
        # near-cyclic, CaseSpec(3, "near-cyclic") case 0: later generations
        # are far smaller than their distance from the origin
        [[0.3512370633258834, 0.10740664606074572],
         [0.3313576852543707, 0.21277795732263385],
         [-0.6487365733102256, 0.10014537669822228],
         [-0.033858175270028455, -0.4203299800816019]],
        # self-intersecting with zero signed area
        [[0, 0], [1.5, 1], [2, 0], [0.3, 1]],
    ], ids=["near-cyclic", "zero-area"])
    def test_collapsed_area(self, quad_file, tmp_path, vertices):
        out = tmp_path / "it.json"
        rc = main(["iterate", quad_file({"vertices": vertices}), "--generations", "3",
                   "--out", str(out)])
        assert rc in (0, 2)
        doc = json.loads(out.read_text())
        assert all(r is None or r >= 0 for r in doc["area_ratios"])

    @pytest.mark.parametrize("factor", [1e-300, 1e-170, 1e-160, 1e160, 1e300])
    def test_area_ratios_do_not_depend_on_the_scale(self, quad_file, tmp_path, factor):
        # area() / area() overflowed or underflowed: CaseSpec(3,
        # "convex-noncyclic") case 0 read NaN from 1e160, null from 1e-170
        # and 0.68804 at 1e-160, against 0.68876 at scale 1
        q = random_quadrilateral(CaseSpec(3, "convex-noncyclic"), 0)
        ratios = {}
        for k in (1.0, factor):
            out = tmp_path / "it.json"
            path = quad_file({"vertices": [[v.x * k, v.y * k] for v in q.vertices()]})
            assert main(["iterate", path, "--generations", "2", "--out", str(out)]) == 0
            ratios[k] = json.loads(out.read_text())["area_ratios"]
        assert ratios[factor] == pytest.approx(ratios[1.0], rel=1e-13)

    def test_reports_are_pinned(self, quad_file, tmp_path):
        # both directions on generic, cyclic, near-cyclic, concave and
        # trapezoid inputs, at the default tol and at 1e-3, where the
        # near-cyclic ones are cyclic; four backward runs end at infinity
        inputs = [quad_file(GENERIC, "generic.json"), quad_file(SQUARE, "square.json"),
                  quad_file(NEAR_SQUARE, "near.json")]
        for shape, index in (("concave", 0), ("near-cyclic", 1), ("trapezoid", 1)):
            q = random_quadrilateral(CaseSpec(3, shape), index)
            inputs.append(quad_file({"vertices": [[v.x, v.y] for v in q.vertices()]},
                                    f"{shape}.json"))
        digest, out = hashlib.sha256(), tmp_path / "it.json"
        for path in inputs:
            for tol in ("1e-9", "1e-3"):
                for direction, count in (("forward", "4"), ("backward", "4"), ("backward", "300")):
                    out.unlink(missing_ok=True)
                    rc = main(["iterate", path, "--generations", count, "--direction", direction,
                               "--tol", tol, "--out", str(out)])
                    text = out.read_text() if out.exists() else ""
                    digest.update(f"{rc}\n{text}".encode())
        assert digest.hexdigest() == ITERATE_SHA256

    def test_negative_generations_exit_1(self, quad_file, capsys):
        assert main(["iterate", quad_file(GENERIC), "--generations", "-2"]) == 1
        assert capsys.readouterr().out == ""


class TestVerify:
    def test_exit_zero_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--cases", "25", "--seed", "42",
                "--class", "convex-noncyclic", "--tol", "1e-8"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cyclic_class_sections(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["verify", "--cases", "5", "--seed", "1",
                     "--class", "cyclic", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "ptolemy" in doc["invariants"]
        assert "six_cs_concurrence" not in doc["invariants"]

    def test_failures_exit_3(self, tmp_path):
        # a failing run must not exit 1 or 2, the usage and degeneracy codes
        out = tmp_path / "f.json"
        assert main(["verify", "--cases", "3", "--seed", "1", "--class", "convex-noncyclic",
                     "--tol", "1e-300", "--out", str(out)]) == EXIT_FAILURES == 3
        assert json.loads(out.read_text())["failures"] > 0

    def test_zero_cases_exit_1(self):
        assert main(["verify", "--cases", "0", "--seed", "1",
                     "--class", "cyclic"]) == 1

    def test_invalid_class_exit_1(self):
        assert main(["verify", "--cases", "5", "--seed", "1",
                     "--class", "heptagon"]) == 1


class TestRender:
    def test_a_flat_input_at_the_tol_exits_2(self, quad_file, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        assert main(["render", quad_file(FLAT), "--out", str(out)]) == 0
        assert main(["render", quad_file(FLAT), "--out", str(out), "--tol", "1e-3"]) == 2
        assert "collinear" in capsys.readouterr().err

    def test_golden_byte_stability(self, quad_file, tmp_path):
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["render", quad_file(GENERIC), "--layers", "quad,triads,cs,w,s"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        xml.dom.minidom.parseString(f1.read_text())

    @pytest.mark.parametrize("layers", ["s", ","])
    def test_nothing_drawn_frames_the_quad(self, quad_file, tmp_path, layers):
        # a parallelogram's S is at infinity, so the "s" layer draws nothing
        para = {"vertices": [[0, 0], [2, 0], [3, 1], [1, 1]]}
        out = tmp_path / "empty.svg"
        assert main(["render", quad_file(para), "--layers", layers, "--out", str(out)]) == 0
        svg = xml.dom.minidom.parseString(out.read_text()).documentElement
        assert svg.getElementsByTagName("circle") == []
        x, y, width, height = map(float, svg.getAttribute("viewBox").split())
        assert x < 0 and y < 0 and x + width > 3 and y + height > 1

    def test_unknown_layer_exit_1(self, quad_file, tmp_path, capsys):
        assert main(["render", quad_file(GENERIC), "--out",
                     str(tmp_path / "x.svg"), "--layers", "quad,nope"]) == 1
        assert not (tmp_path / "x.svg").exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown layer 'nope' (choose from {', '.join(LAYERS)})"]


class TestReconstruct:
    def test_fourth_vertex(self, capsys):
        rc = main(["reconstruct", "--mode", "fourth-vertex",
                   "--a", "0,0", "--b", "4,0", "--c", "5,3",
                   "--w", "2.2917316692667713,1.926677067082684"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert math.hypot(doc["point"][0] - 1, doc["point"][1] - 4) < 1e-8
        assert doc["residual"] < 1e-8

    def test_fourth_vertex_at_1e_161(self, capsys):
        # a valid quadrilateral scaled by 1e-161: its circumcircles squared
        # raw offsets, which underflowed to a ZeroDivisionError traceback
        rc = main(["reconstruct", "--mode", "fourth-vertex",
                   "--a=-3.751302000495808e-161,-4.837357386548656e-161",
                   "--b=3.983530676213984e-161,2.729039962612808e-162",
                   "--c=2.684293033159237e-161,2.816603454923854e-161",
                   "--w=2.323251956168369e-162,-8.799525502115909e-162"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residual"] < 1e-12

    def test_underdetermined_exit_2(self):
        assert main(["reconstruct", "--mode", "fourth-vertex",
                     "--a", "0,0", "--b", "2,0", "--c", "2,2",
                     "--w", "1,1"]) == 2

    def test_pedal_w(self, capsys):
        # side midpoints of the square (0,0),(2,0),(2,2),(0,2) seen from its center
        rc = main(["reconstruct", "--mode", "pedal-w", "--w", "1,1",
                   "--feet", "1,0", "2,1", "1,2", "0,1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        got = {tuple(v) for v in doc["vertices"]}
        assert got == {(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)}

    def test_missing_inputs_exit_1(self):
        assert main(["reconstruct", "--mode", "pedal-w", "--w", "0,0"]) == 1

    @pytest.mark.parametrize("mode,flag", [("pedal-w", "--w"), ("simson", "--s")])
    def test_coincident_foot_names_the_point_given(self, capsys, mode, flag):
        # the simson reconstruction named w, a point its user never passed
        assert main(["reconstruct", "--mode", mode, flag, "0,0",
                     "--feet", "0,0", "1,0", "2,0", "3,0"]) == EXIT_DEGENERATE
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"degenerate input: a pedal foot coincides with {flag[2:]}\n")

    def test_negative_coordinates_need_no_equals_sign(self, capsys):
        args = ["reconstruct", "--mode", "fourth-vertex", "--b", "1,0", "--c", "1,1",
                "--w", "0.2,0.3"]
        assert main(args + ["--a=-1,0"]) == 0
        joined = json.loads(capsys.readouterr().out)
        assert main(args + ["--a", "-1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["point"] == joined["point"]

    def test_negative_feet(self, capsys):
        rc = main(["reconstruct", "--mode", "pedal-w", "--w", "0,0",
                   "--feet", "1,0", "0,1", "-1,0", "0,-1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"] == [[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]


# GENERIC moved by (-10, -10): every coordinate a reconstruction reads is negative
NEGATIVE = {"vertices": [[x - 10, y - 10] for x, y in GENERIC["vertices"]]}
SUBCOMMANDS = ("analyze", "iterate", "verify", "render", "reconstruct")
OPTIONS = {"analyze": ("--tol", "--out"),
           "iterate": ("--generations", "--direction", "--tol", "--out"),
           "verify": ("--cases", "--seed", "--class", "--tol", "--out"),
           "render": ("--out", "--layers", "--tol"),
           "reconstruct": ("--mode", "--a", "--b", "--c", "--w", "--s", "--feet", "--tol",
                           "--out")}
VERIFY = ["verify", "--cases", "1", "--seed", "1", "--class", "cyclic"]


def _xy_arg(xy):
    return f"{xy[0]!r},{xy[1]!r}"


class TestArgv:
    """The command line: each usage error exits 1 with one error line and no
    stdout; values, prefixes and the = form parse as the README says."""

    def usage_error(self, capsys, argv):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1
        return lines[0]

    @pytest.mark.parametrize("argv, line", [
        ([], "isoptic: error: the following arguments are required: command"),
        (["bogus"], "isoptic: error: argument command: invalid choice: 'bogus' (choose from "
                    + ", ".join(map(repr, SUBCOMMANDS)) + ")"),
        (VERIFY[:5], "isoptic verify: error: the following arguments are required: --class"),
        (["verify"], "isoptic verify: error: the following arguments are required: "
                     "--cases, --seed, --class"),
        (VERIFY[:6] + ["heptagon"], "isoptic verify: error: argument --class: invalid choice: "
                                    "'heptagon' (choose from "
                                    + ", ".join(map(repr, SHAPE_CLASSES)) + ")"),
        (["verify", "--cases", "x", "--seed", "1", "--class", "cyclic"],
         "isoptic verify: error: argument --cases: invalid int value: 'x'"),
        (["verify", "--cases", "0", "--seed", "1", "--class", "cyclic"],
         "isoptic verify: error: argument --cases: must be > 0, got '0'"),
        (["analyze", "quad.json", "--tol"],
         "isoptic analyze: error: argument --tol: expected one argument"),
        (["reconstruct", "--mode", "pedal-w", "--feet", "1,0", "2,1"],
         "isoptic reconstruct: error: argument --feet: expected 4 arguments"),
        (["verify", "--c", "3"],
         "isoptic verify: error: ambiguous option: --c could match --cases, --class"),
        (["analyze", "quad.json", "--tol", "0"],
         "isoptic analyze: error: argument --tol: must be finite and > 0, got '0'"),
        (["analyze"], "isoptic analyze: error: the following arguments are required: file"),
        (["iterate"], "isoptic iterate: error: the following arguments are required: "
                      "file, --generations"),
        (["render", "quad.json"],
         "isoptic render: error: the following arguments are required: --out"),
        (["iterate", "quad.json", "--generations", "1", "--direction", "sideways"],
         "isoptic iterate: error: argument --direction: invalid choice: 'sideways' "
         "(choose from 'forward', 'backward')"),
        (["reconstruct", "--mode", "-1"],
         "isoptic reconstruct: error: argument --mode: invalid choice: '-1' "
         "(choose from 'fourth-vertex', 'pedal-w', 'simson')"),
    ])
    def test_usage_error_line(self, capsys, argv, line):
        assert self.usage_error(capsys, argv) == line

    @pytest.mark.parametrize("argv, extra", [
        (["analyze", "quad.json", "extra"], "extra"),
        (["analyze", "quad.json", "--bogus", "x"], "--bogus x"),
        (["analyze", "quad.json", "--version"], "--version"),
        (VERIFY + ["-x"], "-x"),
    ])
    def test_unrecognized_arguments(self, capsys, argv, extra):
        line = self.usage_error(capsys, argv)
        assert line.startswith("isoptic")
        assert line.endswith(f": error: unrecognized arguments: {extra}")

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr() == ("0.1.0\n", "")

    def test_help_names_every_command(self, capsys):
        for flag in ("-h", "--help"):
            assert main([flag]) == 0
            out, err = capsys.readouterr()
            assert err == "" and all(name in out for name in SUBCOMMANDS)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_command_help_names_every_option(self, capsys, command):
        assert main([command, "--help"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and all(flag in out for flag in OPTIONS[command])

    def test_equals_form_prefixes_and_order(self, quad_file, tmp_path):
        path, out = quad_file(GENERIC), tmp_path / "out.json"
        forms = [["iterate", path, "--generations", "2", "--direction", "backward",
                  "--tol", "1e-9"],
                 ["iterate", path, "--generations=2", "--direction=backward", "--tol=1e-9"],
                 ["iterate", path, "--gen", "2", "--dir=backward", "--t", "1e-9"],
                 ["iterate", "--generations", "2", "--direction", "backward", path,
                  "--tol", "1e-9"],
                 ["iterate", path, "--generations", "7", "--direction", "forward",
                  "--generations", "2", "--direction", "backward", "--tol", "1e-9"]]
        texts = set()
        for argv in forms:
            assert main(argv + ["--out", str(out)]) == 0
            texts.add(out.read_text())
        assert len(texts) == 1
        assert len(json.loads(texts.pop())["generations"]) == 3

    @pytest.mark.parametrize("argv, line", [
        (["iterate", "quad.json", "--generations", "-2"],
         "isoptic iterate: error: argument --generations: must be >= 0, got '-2'"),
        (["verify", "--cases", "-1", "--seed", "1", "--class", "cyclic"],
         "isoptic verify: error: argument --cases: must be > 0, got '-1'"),
        (["iterate", "quad.json", "--generations", "1", "--direction", "-1"],
         "isoptic iterate: error: argument --direction: invalid choice: '-1' "
         "(choose from 'forward', 'backward')"),
        (VERIFY[:6] + ["-1"], "isoptic verify: error: argument --class: invalid choice: '-1' "
                              "(choose from " + ", ".join(map(repr, SHAPE_CLASSES)) + ")"),
        (["render", "quad.json", "--out", "fig.svg", "--layers", "-1"],
         "error: unknown layer '-1' (choose from " + ", ".join(LAYERS) + ")"),
    ] + [([command, *args, "--tol", "-1"],
          f"isoptic {command}: error: argument --tol: must be finite and > 0, got '-1'")
         for command, args in (("analyze", ["quad.json"]),
                               ("iterate", ["quad.json", "--generations", "1"]),
                               ("verify", VERIFY[1:]),
                               ("render", ["quad.json", "--out", "fig.svg"]),
                               ("reconstruct", ["--mode", "pedal-w"]))])
    def test_negative_value_is_read_as_the_value(self, quad_file, tmp_path, monkeypatch,
                                                 capsys, argv, line):
        monkeypatch.chdir(tmp_path)
        quad_file(GENERIC)
        assert self.usage_error(capsys, argv) == line
        assert not (tmp_path / "fig.svg").exists()

    def test_negative_seed_and_out(self, quad_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(VERIFY[:4] + ["-3"] + VERIFY[5:] + ["--out", "-1"]) == 0
        assert json.loads((tmp_path / "-1").read_text())["seed"] == -3
        assert main(["analyze", quad_file(GENERIC), "--out", "-2"]) == 0
        assert json.loads((tmp_path / "-2").read_text())["w"]["kind"] == "point"
        # any token after --out names the file, even one that reads as an option
        assert main(["analyze", quad_file(GENERIC), "--out", "-x"]) == 0
        assert (tmp_path / "-x").read_text() == (tmp_path / "-2").read_text()

    def test_negative_coordinates_in_every_reconstruction(self, quad_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["analyze", quad_file(NEGATIVE), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        a, b, c, d = NEGATIVE["vertices"]
        w, s = doc["w"]["xy"], doc["s"]["xy"]
        assert min(w + s + a + b + c) < 0
        runs = [["--mode", "fourth-vertex", "--a", _xy_arg(a), "--b", _xy_arg(b),
                 "--c", _xy_arg(c), "--w", _xy_arg(w)],
                ["--mode", "pedal-w", "--w", _xy_arg(w),
                 "--feet", *map(_xy_arg, doc["pedal_w"])],
                ["--mode", "simson", "--s", _xy_arg(s),
                 "--feet", *map(_xy_arg, doc["pedal_s"])]]
        for args in runs:
            assert main(["reconstruct", *args]) == 0
            rec = json.loads(capsys.readouterr().out)
            assert rec["residual"] < 1e-8
            for got, want in zip(rec.get("vertices", [rec.get("point")]),
                                 NEGATIVE["vertices"] if "vertices" in rec else [d]):
                assert math.hypot(got[0] - want[0], got[1] - want[1]) < 1e-7


RECONSTRUCT = ["reconstruct", "--mode", "fourth-vertex", "--a", "0,0", "--b", "4,0",
               "--c", "5,3", "--w", "2.2917316692667713,1.926677067082684"]


@pytest.mark.parametrize("argv, exit_code", [
    (["analyze", "{file}"], 0), (["analyze", "{file}", "--out", "{out}"], 0), (["--version"], 0),
    (["analyze", "{file}", "--tol", "0"], 1), (["analyze", "{collinear}"], 2),
    (["iterate", "{file}", "--generations", "3"], 0),
    # the README quadrilateral's generation 21 rounds together
    (["iterate", "{file}", "--generations", "22"], 2),
    (["render", "{file}", "--out", "{out}"], 0), (RECONSTRUCT, 0),
    (["verify", "--cases", "2", "--seed", "3", "--class", "concave"], 0),
    (["verify", "--cases", "2", "--seed", "3", "--class", "concave", "--tol", "1e-300"], 3),
    (["verify", "--help"], 0)],
    ids=["analyze", "analyze-out", "version", "usage-error", "collinear", "iterate",
         "iterate-degenerate", "render", "reconstruct", "verify", "verify-failures",
         "verify-help"])
def test_module_entry_point_matches_main(quad_file, tmp_path, capsys, argv, exit_code):
    # python -m isoptic.cli, the entry point the benchmark's cold ops time, runs
    # cli as __main__, which reads sys.argv through main(argv=None) and then
    # freezes the collector (entry): the same exit code, stdout, stderr and
    # --out file as main run in-process, on every exit path
    files = {"file": quad_file(GENERIC),
             "collinear": quad_file({"vertices": [[0, 0], [1, 0], [2, 0], [0, 1]]}, "flat.json")}
    code = main([arg.format(**files, out=tmp_path / "main.out") for arg in argv])
    out, err = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(isoptic.cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "isoptic.cli",
                           *[arg.format(**files, out=tmp_path / "module.out") for arg in argv]],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == exit_code
    if "{out}" in argv:
        assert (tmp_path / "module.out").read_bytes() == (tmp_path / "main.out").read_bytes()


# the collector's freeze count as the process ends, read by an atexit hook:
# cli run as __main__ (as python -m runs it) has frozen the collector, and main
# run in-process has left it alone
FREEZE_PROBE = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
if sys.argv[1] == "main":
    import isoptic.cli
    isoptic.cli.main(["--version"])
else:
    sys.argv[1:] = ["--version"]
    runpy.run_module("isoptic.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("path, frozen", [("main", False), ("entry", True)])
def test_only_the_process_entry_freezes_the_collector(path, frozen):
    env = dict(os.environ, PYTHONPATH=str(Path(isoptic.cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE, path],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"0.1.0\nfrozen at exit: {frozen}\n", "")


# in a fresh interpreter: an import after isoptic.cli's finds verify bound on the
# package, verify's shape classes are quad's, and cmd_render reads render_svg
# when it runs, so a function swapped in after the load (as the benchmark's
# tracer swaps it) is the one it calls
LAZY_PROBE = """\
import sys
import isoptic.cli
import isoptic.quad
import isoptic.verify
print(callable(isoptic.verify.run_suite),
      isoptic.verify.SHAPE_CLASSES is isoptic.quad.SHAPE_CLASSES)
isoptic.render.render_svg  # the load
isoptic.render.render_svg = lambda q, layers: "swapped " + " ".join(layers)
print(isoptic.cli.main(["render", sys.argv[1], "--out", sys.argv[2], "--layers", "quad"]))
"""


def test_lazy_modules_are_bound_and_read_at_call_time(quad_file, tmp_path):
    svg = tmp_path / "figure.svg"
    env = dict(os.environ, PYTHONPATH=str(Path(isoptic.cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE, quad_file(GENERIC), str(svg)],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["True", "True", "0"]
    assert svg.read_text() == "swapped quad"
    # a module imported before isoptic.cli, as the suite and the benchmark's
    # workloads import verify, stays the one module
    proc = subprocess.run([sys.executable, "-c", "import sys, isoptic.verify as v, isoptic.cli;"
                           " print(isoptic.cli.verify is v is sys.modules['isoptic.verify'])"],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "True\n")


def test_parse_args_is_total():
    # argv lists drawn from the commands, the options, their prefixes and
    # = forms, and values that read as numbers, options or nothing: each one
    # parses or is a usage error of one line; no command runs
    flags = sorted({flag for spec in COMMANDS.values() for flag in spec[3]}
                   | {"-h", "--help", "--version"})
    pool = [*COMMANDS, *flags, "--", "-", "", "nan", "1e400", "-1,0", "-1", "0", "3", "1e-9",
            "x", "a b", "-x", "--bogus", "=", "--=x", "quad.json", "cyclic", "pedal-w", "backward"]
    pool += [flag[:k] for flag in flags for k in range(3, len(flag))]
    pool += [f"{flag}={value}" for flag in flags for value in ("", "-1,0", "nan", "3")]
    rng, parsed = random.Random(2), 0
    for _ in range(2000):
        argv = [rng.choice(pool) for _ in range(rng.randrange(8))]
        if rng.random() < 0.8:
            argv.insert(0, rng.choice(list(COMMANDS)))
        try:
            args = parse_args(argv)
        except UsageError as exc:
            assert str(exc).startswith("isoptic") and ": error: " in str(exc)
            assert "\n" not in str(exc)
            continue
        assert callable(args.fn)
        parsed += 1
    assert parsed > 100


def test_analyze_reconstruct_analyze_roundtrip(quad_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["analyze", quad_file(GENERIC), "--out", str(out)])
    doc = json.loads(out.read_text())
    w = doc["w"]["xy"]
    feet = doc["pedal_w"]
    rc = main(["reconstruct", "--mode", "pedal-w",
               "--w", f"{w[0]},{w[1]}",
               "--feet"] + [f"{f[0]},{f[1]}" for f in feet])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    out2 = tmp_path / "r2.json"
    main(["analyze", quad_file({"vertices": rec["vertices"]}, "rec.json"),
          "--out", str(out2)])
    w2 = json.loads(out2.read_text())["w"]["xy"]
    assert math.hypot(w2[0] - w[0], w2[1] - w[1]) < 1e-7 * 6.4


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


_SCALES = [1e-322, 1e-320, 1e-316, 1e-300, 1e-170, 1.0, 1e160, 1e300]
_FIRST_CASES = [(CaseSpec(3, shape), 0) for shape in SHAPE_CLASSES]


@pytest.mark.parametrize("factor, offset, cases",
                         [(f, 0.0, _FIRST_CASES) for f in _SCALES]
                         + [(1e307, 1e308, _FIRST_CASES),
                            (8.264060117480234e307, 0.0, [(CaseSpec(257, "concave"), 2)])],
                         ids=[repr(f) for f in _SCALES] + ["1e+307+1e+308", "far-w"])
def test_reports_are_strict_json_at_any_scale(quad_file, tmp_path, factor, offset, cases):
    # iterate wrote NaN area ratios from 1e160, which no strict JSON parser
    # reads, and analyze wrote NaN Varignon midpoints next to 1e308; on the
    # far-w case, whose W lies near (-1.5e308, 1.1e308), analyze ended in an
    # OverflowError.  At 1e-316, render with every layer ended the cyclic case
    # in a ZeroDivisionError (exit 1), and at 1e-320 analyze wrote
    # "six_cs": Infinity on the cyclic and near-cyclic cases
    out = tmp_path / "out.json"
    for spec, index in cases:
        shape, q = spec.shape_class, random_quadrilateral(spec, index)
        path = quad_file({"vertices": [[v.x * factor + offset, v.y * factor]
                                       for v in q.vertices()]})
        for args in (["analyze"], ["iterate", "--generations", "2"],
                     ["iterate", "--generations", "2", "--direction", "backward"],
                     ["render", "--layers", ",".join(LAYERS)]):
            out.unlink(missing_ok=True)
            rc = main([args[0], path, *args[1:], "--out", str(out)])
            assert rc in (0, EXIT_DEGENERATE), (shape, args)
            if args[0] != "render":  # an SVG document
                _strict_json(out.read_text())


def test_backward_iteration_stops_before_infinity(quad_file, tmp_path):
    # CaseSpec(3, "trapezoid") case 1 grows about 33-fold a step backward:
    # the step after 203 finite ones put every vertex at +-inf, which was
    # written as Infinity and NaN before a nan radius ended the run
    q = random_quadrilateral(CaseSpec(3, "trapezoid"), 1)
    out = tmp_path / "back.json"
    path = quad_file({"vertices": [[v.x, v.y] for v in q.vertices()]})
    assert main(["iterate", path, "--generations", "300", "--direction", "backward",
                 "--out", str(out)]) == EXIT_DEGENERATE
    doc = _strict_json(out.read_text())
    assert doc["degeneration"]["reason"] == "PointAtInfinity"
