import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_faces_of, fan_disc
from discmin import certify_saddle, dumps_obj, load_obj, make_tent, random_instance, save_obj
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
    assert data["stop_reason"] == "stationary"
    assert data["saddle"] is True
    cert_data = json.loads(cert.read_text())
    assert cert_data["saddle"] is True
    header = trace.read_text().splitlines()[0]
    assert header == "iter,area,flips,reductions,moves,triangles"
    final = load_obj(out)
    assert final.total_area() == pytest.approx(data["final_area"])
    assert "converged" in capsys.readouterr().out


def test_optimize_identical_traces_for_identical_seeds(tmp_path, instance_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11}))
    traces = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = main(
            [
                "optimize",
                "--in",
                str(instance_path),
                "--config",
                str(cfg),
                "--trace",
                str(path),
            ]
        )
        assert rc == 0
        traces.append(path.read_bytes())
    assert traces[0] == traces[1]


def test_optimize_non_converged_exit_code(tmp_path, instance_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_outer_iterations": 1}))
    rc = main(["optimize", "--in", str(instance_path), "--config", str(cfg)])
    assert rc == 2


def test_optimize_zero_eps_area_converges(tmp_path):
    obj, cfg = tmp_path / "triangle.obj", tmp_path / "cfg.json"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    cfg.write_text(json.dumps({"eps_area": 0}))
    assert main(["optimize", "--in", str(obj), "--config", str(cfg)]) == 0


def test_optimize_exits_0_only_at_the_certified_exit(tmp_path, capsys):
    """The tent's chord disc stops stationary, converged, and exits 0.
    Its fan with flips off stalls at rest with a
    non-saddle apex: not converged, and it exits 2.  The status line
    names the stop, and the summary the vertex closest to failing
    certification."""
    out_dir = tmp_path / "tent"
    assert main(["tent", "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    cfg = tmp_path / "fixed.json"
    cfg.write_text(json.dumps({"enable_flips": False}))
    summary = tmp_path / "summary.json"
    capsys.readouterr()

    assert main(["optimize", "--in", str(out_dir / "chord.obj"), "--summary", str(summary)]) == 0
    assert capsys.readouterr().out.startswith("converged (stationary) after")
    data = json.loads(summary.read_text())
    assert data["stop_reason"] == "stationary" and data["saddle"] is True
    assert data["converged"] is True
    assert data["max_margin"] is None and data["max_margin_vertex"] is None

    fan = ["optimize", "--in", str(out_dir / "fan.obj"), "--config", str(cfg), "--summary", str(summary)]
    assert main(fan) == 2
    out = capsys.readouterr().out
    assert out.startswith("stopped (stalled) after") and "saddle=no" in out
    data = json.loads(summary.read_text())
    assert data["stop_reason"] == "stalled"
    assert data["converged"] is False and data["saddle"] is False
    assert data["max_margin_vertex"] == report["apex"]["id"] == 12
    assert data["max_margin"] == pytest.approx(report["apex"]["margin"], rel=1e-6)
    assert data["flip_cap_exceeded"] is False and data["unresolved_violations"] == 0


@pytest.mark.parametrize(
    "data,where",
    [
        (b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 " + b"9" * 5000 + b"\n", "line 4, column 7"),
        (b"v 0 0 0\n\xff\xfe 1 0 0\n", "line 2, column 1"),
    ],
    ids=["5000-digit index", "not UTF-8"],
)
def test_certify_names_the_line_of_a_bad_file(tmp_path, capsys, data, where):
    path = tmp_path / "bad.obj"
    path.write_bytes(data)
    assert main(["certify", "--in", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ")
    assert len(err) < 100


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
    # without --eps, the margin is certify_saddle's own default
    assert data["eps_saddle"] == inspect.signature(certify_saddle).parameters["eps_saddle"].default


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
    assert (2, 3) in edge_faces_of(flipped.complex)


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
    defaults = inspect.signature(make_tent).parameters
    assert report["height"] == defaults["height"].default
    assert report["ridge_skew"] == defaults["ridge_skew"].default
    assert report["apex"]["status"] == "non_saddle"
    assert report["fan"]["stop_reason"] == "stalled"
    assert report["chord"]["stop_reason"] == "stationary"
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
    {"eps_area": "x"},
    [1, 2],
    {"line_search": 3},
    {"max_outer_iterations": -3},
    {"line_search": {"shrink": 1.5}},
    {"line_search": {"step": 0}},
    {"line_search": {"max_backtracks": -1}},
    {"eps_area": -1e-7},
    {"enable_flips": "yes"},
    {"seed": [1]},
]
BAD_FLAGS = [
    ["certify", "--eps", "nan"],
    ["certify", "--eps=-1e-7"],
    ["flip-pass", "--eps-flip", "nan"],
    ["flip-pass", "--eps-flip=-1"],
]
BAD_SAMPLES = ["0", "-3"]
# argparse's own refusals, which would exit 2, the code of a run that
# stopped without converging
BAD_ARGV = [
    ["optimize", "--seed", "abc", "--in", "{good}"],
    # the seed is set in the config alone
    ["optimize", "--in", "{good}", "--seed", "1"],
    ["certify", "--eps", "abc", "--in", "{good}"],
    ["quad-curve", "--p", "1", "--q", "2", "--r", "2", "--s", "2", "--samples", "x"],
    ["optimize"],
    ["certify", "--in", "{good}", "--wobble"],
    [],
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
    capsys.readouterr()
    for key in ("eps_flip", "eps_saddle", "jitter_amplitude"):
        cfg.write_text(json.dumps({key: 1e-9}))
        assert main(["optimize", "--in", str(good), "--config", str(cfg)]) == 4
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    for argv in BAD_FLAGS:
        assert main([argv[0], "--in", str(good), *argv[1:]]) == 4, argv
    capsys.readouterr()
    for samples in BAD_SAMPLES:
        argv = ["quad-curve", "--p", "1", "--q", "2", "--r", "2", "--s", "2", "--samples", samples]
        assert main(argv) == 4, samples
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--samples must be an integer >= 1, got {samples}" in captured.err
    # sides whose law-of-cosines terms leave the float range, and a sample
    # count that numpy refuses before it allocates any of it
    for side, samples in (("1e200", "3"), ("1e308", "3"), ("1e-320", "3"), ("1", str(10**18))):
        argv = ["quad-curve", "--samples", samples, *(a for n in "pqrs" for a in (f"--{n}", side))]
        assert main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
    for argv in BAD_ARGV:
        assert main([a.format(good=good) for a in argv]) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: discmin" in captured.err, argv
    huge = tmp_path / "huge.obj"
    huge.write_text(good.read_text().replace("v 1 0 0", "v 1e200 0 0", 1))
    assert huge.read_text() != good.read_text()
    assert main(["certify", "--in", str(huge)]) == 4


def test_a_config_nested_past_the_recursion_limit_exits_4(tmp_path, capsys):
    """JSON nested deeper than the reader can recurse, as an array or an
    object, is bad input: optimize exits 4 with one error line."""
    good, cfg = tmp_path / "good.obj", tmp_path / "deep.json"
    save_obj(fan_disc(6), good)
    for text in ("[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000):
        cfg.write_text(text)
        assert main(["optimize", "--in", str(good), "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "nests deeper" in captured.err


FUZZ_TOKENS = ["nan", "1e400", "-1", "1/2", "0", "7", str(10**30), "1" + "0" * 400,
               "9" * 5000, "1e200", "1e-200", "v", "f", "vt", "usemtl", "#", "x",
               # float() reads these, the OBJ reader refuses them
               "1_0", "1e0_0", "\u0661\u0662", "\uff11"]
# a saddle and a non-saddle disc
FUZZ_BASES = [dumps_obj(random_instance(7, nonplanarity=0.3, seed=5)), dumps_obj(fan_disc(7))]


@st.composite
def mutated_obj(draw):
    """A base OBJ with up to three lines replaced, deleted or
    duplicated, or a token of a line swapped for a hostile one."""
    lines = draw(st.sampled_from(FUZZ_BASES)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["replace", "delete", "duplicate", "token"]))
        if kind == "replace":
            lines[i] = " ".join(draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=5)))
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.sampled_from(["3", {}, []])
)
PLAUSIBLE_KEYS = {
    "eps_area": st.floats(0.0, 1e-3),
    "seed": st.integers(0, 2**40),
    "enable_flips": st.booleans(),
}
# At most 3 iterations: every other value is refused before the run.
# Half the configs are plausible, so that runs get past validation.
FUZZ_CONFIGS = st.one_of(
    st.fixed_dictionaries({"max_outer_iterations": st.integers(1, 3)}, optional=PLAUSIBLE_KEYS),
    st.fixed_dictionaries(
        {"max_outer_iterations": st.one_of(st.integers(-1, 3), FUZZ_VALUES)},
        optional={key: st.one_of(value, FUZZ_VALUES) for key, value in PLAUSIBLE_KEYS.items()},
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    text=mutated_obj(),
    config=FUZZ_CONFIGS,
    command=st.sampled_from(["certify", "flip-pass", "optimize"]),
    eps=st.one_of(st.none(), st.floats()),
)
def test_cli_survives_mutated_inputs(tmp_path_factory, text, config, command, eps):
    folder = tmp_path_factory.getbasetemp()
    obj, cfg = folder / "fuzz.obj", folder / "fuzz.json"
    obj.write_text(text, encoding="utf-8")
    cfg.write_text(json.dumps(config))
    argv = [command, "--in", str(obj)]
    if command == "optimize":
        argv += ["--config", str(cfg)]
    elif eps is not None:
        argv.append(f"{'--eps' if command == 'certify' else '--eps-flip'}={eps!r}")
    assert main(argv) in {0, 1, 2, 4}
