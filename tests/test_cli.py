import json
import math
import sys
import xml.dom.minidom

import pytest

from isoptic.cli import EXIT_DEGENERATE, EXIT_FAILURES, load_quad_file, main

GENERIC = {"vertices": [[0, 0], [4, 0], [5, 3], [1, 4]]}
SQUARE = {"vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}
# the least triad height, of ABC, is 1e-7 of the diameter
THIN = {"vertices": [[0, 0], [1, 0], [2, 5.657e-7], [0, 2]]}


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

    def test_backward_from_cyclic_input(self, quad_file, tmp_path):
        # a cyclic quadrilateral is no quadrilateral's second generation
        out = tmp_path / "it.json"
        rc = main(["iterate", quad_file(SQUARE), "--generations", "1",
                   "--direction", "backward", "--out", str(out)])
        assert rc == 2
        doc = json.loads(out.read_text())
        assert doc["degeneration"]["reason"] == "OrthocentricDegeneration"
        assert "cyclic" in doc["degeneration"]["message"]
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

    def test_unknown_layer_exit_1(self, quad_file, tmp_path):
        assert main(["render", quad_file(GENERIC), "--out",
                     str(tmp_path / "x.svg"), "--layers", "quad,nope"]) == 1


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
