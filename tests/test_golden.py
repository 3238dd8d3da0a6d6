"""Golden outputs of the README quadrilateral.

``golden/readme.svg`` is ``isoptic render`` with all ten layers and
``golden/readme_analyze.json`` is ``isoptic analyze``, both of
``{"vertices": [[0, 0], [4, 0], [5, 3], [1, 4]]}``.  A change that moves
either on purpose regenerates it with those two commands and says why.
"""

import json
from pathlib import Path

from isoptic.cli import main
from isoptic.render import LAYERS

GOLDEN = Path(__file__).parent / "golden"
README_QUAD = {"vertices": [[0, 0], [4, 0], [5, 3], [1, 4]]}


def _quad_file(tmp_path) -> str:
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(README_QUAD))
    return str(path)


def test_svg_all_layers(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["render", _quad_file(tmp_path), "--out", str(out),
                 "--layers", ",".join(LAYERS)]) == 0
    assert out.read_bytes() == (GOLDEN / "readme.svg").read_bytes()


def test_analyze_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", _quad_file(tmp_path), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "readme_analyze.json").read_bytes()
