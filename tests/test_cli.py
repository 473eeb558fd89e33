"""End-to-end checks of the command line interface.

Every subcommand runs against a real surface and its CSV output is parsed
back and compared with library results or closed forms. Output must be
byte-deterministic so reruns diff clean.
"""

import csv
import json
import math
import pathlib
import xml.etree.ElementTree as ET

import pytest

from surfgeo import cli

REPO = pathlib.Path(__file__).resolve().parent.parent


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    data = [r for r in rows[1:] if r and not r[0].startswith("#")]
    return rows[0], data


def _summary(path):
    vals = {}
    for line in pathlib.Path(path).read_text().splitlines():
        key, _, val = line.partition(" = ")
        vals[key] = val
    return vals


def test_transport_latitude_loop(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "transport", "--surface", "sphere:r=1", "--loop", "latitude_circle:u=1.0471975511965976",
        "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "transport.csv")
    assert header == ["arclength", "angle_unwrapped"]
    assert abs(float(rows[-1][1]) - (-math.pi)) < 1e-6
    s = _summary(out / "summary.txt")
    assert s["closed"] == "true"
    assert abs(float(s["total_rotation"]) + math.pi) < 1e-6


def test_chariot_arc(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "chariot", "--surface", "plane",
        "--path", "arc:cu=0,cv=0,r=2,t0=0,t1=-1.5707963267948966,max_step=0.005",
        "--width", "0.1", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "chariot.csv")
    assert header == ["arclength", "angle_unwrapped", "d_l", "d_r"]
    s = _summary(out / "summary.txt")
    diff = float(s["wheel_difference"])
    assert abs(diff - 0.1 * math.pi / 2) < 1e-3
    assert abs(float(s["statue_rotation"])) < 1e-3


def test_geodesic_connect(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "geodesic", "--surface", "sphere:r=1", "--connect", "1.5707963267948966,0;1.5707963267948966,1",
        "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "geodesic.csv")
    assert header == ["t", "u", "v", "cumulative_length"]
    assert abs(float(rows[-1][3]) - 1.0) < 1e-7  # equator arc of length 1
    s = _summary(out / "summary.txt")
    assert 1 <= int(s["iterations"]) <= 80
    assert float(s["residual"]) < 1e-11


def test_relax_plane_detour(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "relax", "--surface", "plane", "--path", "waypoints:0,0;0.5,0.35;1,0",
        "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "relax.csv")
    assert header == ["iteration", "length", "max_rotation_rate"]
    lengths = [float(r[1]) for r in rows]
    assert lengths[-1] < lengths[0]
    s = _summary(out / "summary.txt")
    assert s["converged"] == "true"
    assert abs(float(s["final_length"]) - 1.0) < 1e-3


def test_curvature_grid(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "curvature", "--surface", "sphere:r=2", "--grid", "0.9,0.2,1.9,1.2,5",
        "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "curvature.csv")
    assert header == ["u", "v", "K_intrinsic", "K_extrinsic", "error_estimate"]
    assert len(rows) == 25
    for r in rows:
        assert abs(float(r[2]) - 0.25) < 1e-4
        assert abs(float(r[3]) - 0.25) < 1e-4


def test_gaussbonnet_octant(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "gaussbonnet", "--surface", "sphere:r=1",
        "--region", "rect:u0=0.001,v0=0,u1=1.5707963267948966,v1=1.5707963267948966",
        "--grid", "8", "--out", str(out)])
    assert rc == 0
    s = _summary(out / "summary.txt")
    assert abs(float(s["holonomy"]) - math.pi / 2) < 1e-4
    assert abs(float(s["residual"])) < 4e-3


def test_polygon_octant(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "polygon", "--surface", "sphere:r=1",
        "--vertices",
        "1.5707963267948966,0;1.5707963267948966,1.5707963267948966"
        ";0.002,1.5707963267948966;0.002,0",
        "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "polygon.csv")
    assert header == ["vertex", "u", "v", "exterior_angle", "interior_angle"]
    assert len(rows) == 4
    s = _summary(out / "summary.txt")
    ext = float(s["exterior_angle_sum"])
    hol = float(s["holonomy"])
    assert abs(ext + hol - 2 * math.pi) < 1e-5


def test_mapcheck_trailer(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "mapcheck", "--surface", "sphere:r=1", "--map", "mercator",
        "--pairs", "40", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = (out / "mapcheck.csv").read_text().splitlines()
    assert lines[0] == "lat1,lon1,lat2,lon2,true_dist,map_dist,ratio"
    assert lines[-1].startswith("# summary: samples=40 ")
    assert "spread=" in lines[-1]
    _, rows = _read_csv(out / "mapcheck.csv")
    for r in rows:
        assert -math.pi / 2 < float(r[0]) < math.pi / 2  # latitudes, not colatitudes
        assert float(r[6]) > 0.9


def test_egregium_points(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "egregium", "--surface", "torus:R=2,r=0.5", "--points", "0.5,1;2.6,0.3",
        "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "egregium.csv")
    assert header == ["u", "v", "K_intrinsic", "K_extrinsic", "relative_gap"]
    for r in rows:
        assert float(r[4]) < 1e-2


def test_output_is_byte_deterministic(tmp_path):
    args = ["curvature", "--surface", "sphere:r=1", "--points", "1.1,0.4;0.8,2.0", "--svg"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    for f in sorted(a.iterdir()):
        assert (b / f.name).read_bytes() == f.read_bytes()


def test_svg_output_parses(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "transport", "--surface", "sphere:r=1", "--loop", "latitude_circle:u=1.2",
        "--svg", "--out", str(out)])
    assert rc == 0
    svgs = list(out.glob("*.svg"))
    assert svgs
    for f in svgs:
        root = ET.parse(f).getroot()
        assert root.tag.endswith("svg")


def test_degrees_flag(tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "transport", "--surface", "sphere:r=1", "--loop", "latitude_circle:u=1.0471975511965976",
        "--degrees", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "transport.csv")
    assert abs(float(rows[-1][1]) - (-180.0)) < 1e-4


def test_parse_error_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"surface": {"kind": "sphere",}\n')
    rc = cli.main(["run", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config parse error at line 1, column" in err


def test_validation_error_exit_code(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["transport", "--surface", "saddle:r=1",
                   "--loop", "latitude_circle:u=1.0", "--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_computational_error_exit_code(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["transport", "--surface", "sphere:r=1",
                   "--loop", "latitude_circle:u=0.0001", "--out", str(out)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_unwritable_output_directory_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("in the way\n")
    out = blocker / "o"
    rc = cli.main(["transport", "--surface", "sphere:r=1",
                   "--loop", "latitude_circle:u=1.0", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("output error") and str(out) in err
    assert len(err.strip().splitlines()) == 1


def test_run_scenario_round_trip(tmp_path):
    cfg = {
        "surface": {"kind": "sphere", "params": {"r": 1.0}},
        "loops": {"belt": {"generator": "latitude_circle", "params": {"u": 1.2}, "max_step": 0.02}},
        "command": {"name": "transport", "loop": "belt"},
        "output": {"directory": str(tmp_path / "o"), "formats": ["csv"]},
    }
    rc = cli.run_scenario(json.dumps(cfg))
    assert rc == 0
    s = _summary(tmp_path / "o" / "summary.txt")
    assert abs(float(s["total_rotation"]) + 2 * math.pi * math.cos(1.2)) < 1e-6


@pytest.mark.parametrize("cfg", sorted((REPO / "demos" / "configs").glob("*.json")),
                         ids=lambda p: p.stem)
def test_demo_configs_run_clean(cfg, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["run", str(cfg)])
    assert rc == 0


@pytest.mark.parametrize("block", ["regions", "loops"])
def test_non_simple_region_is_a_config_error(block, tmp_path, capsys):
    """A bowtie whose diagonals share the sample (0.5, 0.5) cannot bound a
    region, whether it is declared as a region or as a loop used as one."""
    cfg = {
        "surface": {"kind": "plane", "params": {}},
        block: {"bow": {"generator": "waypoints", "max_step": 0.2,
                        "params": {"points": [[0, 0], [1, 1], [1, 0], [0, 1], [0, 0]]}}},
        "command": {"name": "gaussbonnet", "region": "bow", "grid": 2},
        "output": {"directory": str(tmp_path / "o"), "formats": ["csv"]},
    }
    rc = cli.run_scenario(json.dumps(cfg))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: regions[bow]:") and "simple polygon" in err
