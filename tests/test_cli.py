import json
import math

import numpy as np
import pytest

from conftest import fan_disc
from discmin import load_obj, random_instance, save_obj
from discmin.cli import main


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "in.obj"
    save_obj(random_instance(9, nonplanarity=0.3, seed=3), path)
    return path


def test_optimize_writes_artifacts(tmp_path, instance_path, capsys):
    out = tmp_path / "out.obj"
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    cert = tmp_path / "cert.json"
    rc = main(
        [
            "optimize",
            "--in",
            str(instance_path),
            "-o",
            str(out),
            "--trace",
            str(trace),
            "--summary",
            str(summary),
            "--certificate",
            str(cert),
        ]
    )
    assert rc == 0
    data = json.loads(summary.read_text())
    assert data["converged"] is True
    assert data["saddle"] is True
    cert_data = json.loads(cert.read_text())
    assert cert_data["saddle"] is True
    header = trace.read_text().splitlines()[0]
    assert header == "iter,area,flips,reductions,moves,triangles"
    final = load_obj(out)
    assert final.total_area() == pytest.approx(data["final_area"])
    assert "converged" in capsys.readouterr().out


def test_optimize_identical_traces_for_identical_seeds(tmp_path, instance_path):
    traces = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = main(
            [
                "optimize",
                "--in",
                str(instance_path),
                "--seed",
                "11",
                "--trace",
                str(path),
            ]
        )
        assert rc == 0
        traces.append(path.read_bytes())
    assert traces[0] == traces[1]


def test_optimize_seed_flag_overrides_config(tmp_path, instance_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "max_outer_iterations": 10000}))
    t1 = tmp_path / "t1.csv"
    t2 = tmp_path / "t2.csv"
    main(["optimize", "--in", str(instance_path), "--config", str(cfg), "--seed", "2", "--trace", str(t1)])
    main(["optimize", "--in", str(instance_path), "--seed", "2", "--trace", str(t2)])
    assert t1.read_bytes() == t2.read_bytes()


def test_optimize_non_converged_exit_code(tmp_path, instance_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_outer_iterations": 1}))
    rc = main(["optimize", "--in", str(instance_path), "--config", str(cfg)])
    assert rc == 2


def test_certify_exit_codes(tmp_path, capsys):
    flat = tmp_path / "flat.obj"
    save_obj(fan_disc(8, apex=(0.0, 0.0, 0.0)), flat)
    assert main(["certify", "--in", str(flat)]) == 0

    cone = tmp_path / "cone.obj"
    save_obj(fan_disc(8, apex=(0.0, 0.0, 0.9)), cone)
    report = tmp_path / "cert.json"
    rc = main(["certify", "--in", str(cone), "-o", str(report)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "non-saddle" in out
    assert "vertex 8" in out
    data = json.loads(report.read_text())
    assert data["saddle"] is False
    assert data["vertices"][0]["id"] == 8


def test_certify_eps_flag(tmp_path):
    # a barely-lifted apex is non-saddle at a loose epsilon only
    barely = tmp_path / "barely.obj"
    save_obj(fan_disc(8, apex=(0.0, 0.0, 1e-5)), barely)
    assert main(["certify", "--in", str(barely), "--eps", "1e-7"]) == 1
    assert main(["certify", "--in", str(barely), "--eps", "1e-3"]) == 0


def test_flip_pass_command(tmp_path, capsys):
    src = tmp_path / "hinge.obj"
    positions = np.array(
        [[0, 0, 0], [1, 1, 0], [0.6, 0.4, 0.3], [0, 1, 0]], dtype=float
    )
    from discmin import PolyhedralDisc, build_from_triangles

    disc = PolyhedralDisc(build_from_triangles([(0, 1, 2), (1, 0, 3)]), positions)
    save_obj(disc, src)
    out = tmp_path / "flipped.obj"
    rc = main(["flip-pass", "--in", str(src), "-o", str(out)])
    assert rc == 0
    assert "1 flip" in capsys.readouterr().out
    flipped = load_obj(out)
    assert (2, 3) in flipped.complex.edge_faces


def test_quad_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(
        [
            "quad-curve",
            "--p", "1", "--q", "1", "--r", "1", "--s", "1",
            "--samples", "5",
            "-o", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,diagonal,area"
    assert len(lines) == 6
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    mid = rows[2]
    assert mid[0] == pytest.approx(math.pi)
    assert mid[1] == pytest.approx(math.sqrt(2))
    assert mid[2] == pytest.approx(1.0, abs=1e-12)


def test_quad_curve_stdout(capsys):
    rc = main(["quad-curve", "--p", "1", "--q", "2", "--r", "2", "--s", "2", "--samples", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha,diagonal,area")


def test_tent_command(tmp_path, capsys):
    out_dir = tmp_path / "tent"
    rc = main(["tent", "--out-dir", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["apex"]["status"] == "non_saddle"
    assert report["chord_area"] < report["fan_area"]
    assert report["relative_gap"] > 1e-6
    fan = load_obj(out_dir / "fan.obj")
    chord = load_obj(out_dir / "chord.obj")
    assert len(fan.complex.triangles) == 12
    assert len(chord.complex.triangles) == 10
    assert "fan area" in capsys.readouterr().out


# Refused with exit code 4, not a traceback, a silent no-op or a false
# verdict.
BAD_CONFIGS = [
    {"eps_flip": "x"},
    [1, 2],
    {"line_search": 3},
    {"max_outer_iterations": -3},
    {"line_search": {"shrink": 1.5}},
    {"line_search": {"step": 0}},
    {"line_search": {"max_backtracks": -1}},
    {"eps_saddle": -1e-7},
    {"enable_flips": "yes"},
    {"seed": [1]},
]
BAD_FLAGS = [
    ["certify", "--eps", "nan"],
    ["certify", "--eps=-1e-7"],
    ["flip-pass", "--eps-flip", "nan"],
    ["flip-pass", "--eps-flip=-1"],
]


def test_error_exit_codes(tmp_path, capsys):
    assert main(["optimize", "--in", str(tmp_path / "missing.obj")]) == 4
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 0\nf 1 2\n")
    assert main(["optimize", "--in", str(bad)]) == 4
    err = capsys.readouterr().err
    assert "error:" in err

    good = tmp_path / "good.obj"
    save_obj(fan_disc(6), good)
    broken_cfg = tmp_path / "cfg.json"
    broken_cfg.write_text("{not json")
    assert main(["optimize", "--in", str(good), "--config", str(broken_cfg)]) == 4
    unknown_cfg = tmp_path / "cfg2.json"
    unknown_cfg.write_text(json.dumps({"wobble": 3}))
    assert main(["optimize", "--in", str(good), "--config", str(unknown_cfg)]) == 4
    assert main(["quad-curve", "--p", "1", "--q", "1", "--r", "1", "--s", "9"]) == 4

    for config in BAD_CONFIGS:
        cfg = tmp_path / "bad_cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["optimize", "--in", str(good), "--config", str(cfg)]) == 4, config
    for argv in BAD_FLAGS:
        assert main([argv[0], "--in", str(good), *argv[1:]]) == 4, argv

