"""Command-line interface: payloads, exit codes, and file handling."""

import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as hs

from geostiff import cli, robot, sim, stiffness as st


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestModelValidate:
    def test_bundled_iiwa7(self, capsys):
        payload = run_json(capsys, "model", "validate", "iiwa7.json")
        assert payload["n"] == 7
        assert payload["valid"] is True

    @staticmethod
    def anthro3r_doc():
        """The bundled anthro3r model re-serialized as a JSON document."""
        src = robot.bundled_model("anthro3r")
        return {
            "name": src.name,
            "joints": [{
                "axis": j.axis.tolist(), "kind": j.kind,
                "home": {"rotation": j.home[:3, :3].ravel().tolist(),
                         "translation": j.home[:3, 3].tolist()},
                "limits": [j.limit_lower, j.limit_upper],
            } for j in src.joints],
            "links": [{"mass": l.mass, "com": l.com.tolist(),
                       "inertia": l.inertia.ravel().tolist()} for l in src.links],
            "end_effector": {
                "rotation": src.end_effector[:3, :3].ravel().tolist(),
                "translation": src.end_effector[:3, 3].tolist()},
        }

    def test_explicit_file(self, capsys, tmp_path, iiwa7):
        # re-serialize a copy under a different name and point at it directly
        doc = self.anthro3r_doc()
        file = tmp_path / "arm.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        payload = run_json(capsys, "model", "validate", str(file))
        assert payload["n"] == 3

    def test_search_path_env(self, capsys, tmp_path, monkeypatch):
        file = tmp_path / "renamed.json"
        import importlib.resources
        text = importlib.resources.files("geostiff.models").joinpath(
            "anthro3r.json").read_text(encoding="utf-8")
        file.write_text(text, encoding="utf-8")
        monkeypatch.setenv(cli.MODEL_PATH_VAR, str(tmp_path))
        payload = run_json(capsys, "model", "validate", "renamed.json")
        assert payload["n"] == 3

    def test_missing_model_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "model", "validate", "nope.json")
        assert code == 1
        assert out == ""
        assert "not found" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["model"])
        assert exc.value.code == 2


class TestExampleAnthro:
    def test_worked_example_at_zero(self, capsys):
        payload = run_json(capsys, "example", "anthro", "--q1", "0", "--m", "1,0,0")
        assert payload["k_kin"] == [[0, 0, 0], [1, 0, 0], [1, 0, 0]]
        assert payload["corrected"] == [[0, 0.5, 0.5], [0.5, 0, 0], [0.5, 0, 0]]

    def test_general_angle(self, capsys):
        q1 = 0.7
        payload = run_json(capsys, "example", "anthro",
                           "--q1", str(q1), "--m", "2,1,0")
        a = 0.5 * (2 * np.cos(q1) + 1 * np.sin(q1))
        assert payload["a"] == pytest.approx(a, rel=1e-12)
        corrected = np.array(payload["corrected"])
        expected = np.array([[0, a, a], [a, 0, 0], [a, 0, 0]])
        assert np.abs(corrected - expected).max() < 1e-12


class TestStiffness:
    def test_audit_uncorrected_moment(self, capsys):
        payload = run_json(
            capsys, "stiffness", "--model", "anthro3r.json", "--q", "0,0,0",
            "--wrench", "0,0,0,1,0,0", "--frame", "hybrid", "--no-correction",
            "audit")
        assert payload["sigma_max_asym"] > 0
        assert payload["passive"] is False

    def test_compute_corrected_symmetric(self, capsys):
        payload = run_json(
            capsys, "stiffness", "--model", "iiwa7.json",
            "--q", "0,0.5,0,-1.2,0,0.8,0",
            "--wrench", "0,0,10,0,0,2", "--hessian", "400,400,400,20,20,20",
            "compute")
        m = np.array(payload["matrix"])
        assert np.abs(m - m.T).max() <= 1e-9 * max(1.0, np.abs(m).max())
        assert payload["inputs_echo"]["with_correction"] is True

    def test_matches_library_bit_exactly(self, capsys, iiwa7):
        from geostiff import stiffness as st
        from geostiff.connection import Frame
        q = [0.1, 0.2, 0.3, -0.4, 0.5, 0.6, 0.7]
        wrench = [1, 2, 3, 4, 5, 6]
        payload = run_json(
            capsys, "stiffness", "--model", "iiwa7.json",
            "--q", ",".join(map(str, q)), "--wrench", ",".join(map(str, wrench)),
            "compute")
        hessian = st.TaskStiffness(np.zeros((6, 6)), Frame.BODY)
        expected = st.joint_stiffness(iiwa7, q, hessian, wrench, Frame.BODY).matrix
        assert np.array_equal(np.array(payload["matrix"]), expected)

    def test_inertial_frame(self, capsys, iiwa7):
        from geostiff import stiffness as st
        from geostiff.connection import Frame
        q, wrench = [0.1, 0.2, 0.3, -0.4, 0.5, 0.6, 0.7], [1, 2, 3, 4, 5, 6]
        payload = run_json(
            capsys, "stiffness", "--model", "iiwa7", "--frame", "inertial",
            "--q", ",".join(map(str, q)), "--wrench", ",".join(map(str, wrench)),
            "--hessian", "400,400,400,20,20,20", "compute")
        hessian = st.TaskStiffness.from_numbers([400] * 3 + [20] * 3, Frame.INERTIAL)
        expected = st.joint_stiffness(iiwa7, q, hessian, wrench, Frame.INERTIAL).matrix
        assert np.array_equal(np.array(payload["matrix"]), expected)
        assert payload["sigma_max_asym"] <= 1e-12 * payload["sigma_max_sym"]

    def test_bad_wrench_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "stiffness", "--model", "anthro3r.json",
                                 "--q", "0,0,0", "--wrench", "1,2", "compute")
        assert code == 1

    def test_overflowing_result_exits_1(self, capsys):
        # a wrench of 1e308 in every component overflows the joint stiffness
        code, out, err = run_cli(capsys, "stiffness", "--model", "iiwa7",
                                 "--q=0,0.5,0,-1.2,0,0.8,0", "--wrench=" + ",".join(["1e308"] * 6),
                                 "compute")
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err

    def test_huge_finite_result_is_reported(self, capsys):
        # entries of ~1e200 once overflowed sigma's Gram matrix; sigma is
        # scaled now, so the finite result is reported
        payload = run_json(capsys, "stiffness", "--model", "iiwa7",
                           "--q=0,0.5,0,-1.2,0,0.8,0", "--wrench=1e200,0,0,0,0,0", "compute")
        report = st.symmetry_report(payload["matrix"])
        assert payload["sigma_max_sym"] == report.sigma_max_sym
        assert 1e199 < payload["sigma_max_sym"] < 1e201
        assert payload["sigma_max_asym"] <= 1e-12 * payload["sigma_max_sym"]


class TestPassivity:
    def test_inline_matrix(self, capsys):
        payload = run_json(capsys, "passivity", "--matrix", "[[0,1],[-1,0]]")
        assert payload["passive"] is False
        assert abs(abs(payload["net_work"]) - 2 * np.pi) < 1e-3

    def test_matrix_file(self, capsys, tmp_path):
        file = tmp_path / "k.json"
        file.write_text("[[1,0],[0,1]]", encoding="utf-8")
        payload = run_json(capsys, "passivity", "--matrix", str(file))
        assert payload["passive"] is True

    def test_garbage_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "passivity", "--matrix", "not json")
        assert code == 1

    def test_overflowing_work_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "passivity", "--matrix",
                                 "[[1e308,-1e308],[1e308,1]]")
        assert code == 1
        assert out == ""
        assert "error: loop work overflows" in err


class TestBoundaries:
    Q7 = "--q=0,0.5,0,-1.2,0,0.8,0"
    W = "--wrench=0,0,10,0,0,2"

    @pytest.mark.parametrize("argv", [
        ["passivity", "--matrix", "[[NaN,1],[0,1]]"],
        ["passivity", "--matrix", "[[1,2],[Infinity,1]]"],
        ["passivity", "--matrix", "[[1,2],[3]]"],
        ["passivity", "--matrix", '[["a","b"],["c","d"]]'],
        ["passivity", "--matrix", '{"k": 1}'],
        ["passivity", "--matrix", "[[1,2,3],[4,5,6]]"],
        ["stiffness", "--model", "iiwa7", Q7, W, "--hessian=1,2,x,4,5,6", "compute"],
        ["stiffness", "--model", "iiwa7", Q7, W, "--hessian=1,2,3", "compute"],
        ["stiffness", "--model", "iiwa7", "--q=nan,0,0,0,0,0,0", W, "compute"],
        ["stiffness", "--model", "iiwa7", Q7, "--wrench=0,0,inf,0,0,0", "audit"],
        ["example", "anthro", "--m=1,nan,0"],
        ["example", "anthro", "--q1=nan"],
    ])
    def test_malformed_input_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_malformed_matrix_file_exits_1(self, capsys, tmp_path):
        file = tmp_path / "k.json"
        file.write_text("[[1,2],[3]]", encoding="utf-8")
        code, _, err = run_cli(capsys, "passivity", "--matrix", str(file))
        assert code == 1
        assert err.startswith("error: ")

    def test_long_inline_matrix(self, capsys, rng):
        b = rng.normal(scale=100.0, size=(7, 7))
        text = json.dumps((b + b.T).tolist())
        assert len(text) > 255      # longer than any file name
        payload = run_json(capsys, "passivity", "--matrix", text)
        assert payload["passive"] is True
        assert payload["inputs_echo"]["matrix"] == json.loads(text)


class TestParserReuse:
    ARGVS = [
        ["stiffness", "--model", "anthro3r", "--q=0.1,0.2,0.3", "--wrench=0,0,0,1,0,0",
         "--frame", "hybrid", "--no-correction", "audit"],
        ["stiffness", "--model", "anthro3r", "--q=0.1,0.2,0.3", "--wrench=0,0,0,1,0,0",
         "--frame", "hybrid", "audit"],
        ["example", "anthro", "--q1=0.4", "--m=1,2,0"],
        ["example", "anthro"],
        ["stiffness", "--model", "iiwa7", "--q=0,0.5,0,-1.2,0,0.8,0",
         "--wrench=1,2,3,4,5,6", "--hessian=400,400,400,20,20,20", "compute"],
        ["stiffness", "--model", "iiwa7", "--q=0,0.5,0,-1.2,0,0.8,0",
         "--wrench=1,2,3,4,5,6", "compute"],
        ["passivity", "--matrix", "[[0,1],[-1,0]]"],
        ["model", "validate", "iiwa7"],
    ]

    def test_build_parser_returns_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_alternating_calls_match_fresh_parser(self, capsys):
        for argv in self.ARGVS * 2:
            code, out, err = run_cli(capsys, *argv)
            args = cli.build_parser().parse_args(argv)
            assert args.func(args) == code == 0
            assert out == capsys.readouterr().out

    def test_no_correction_does_not_carry_over(self, capsys):
        first = run_json(capsys, *self.ARGVS[0])
        second = run_json(capsys, *self.ARGVS[1])
        assert first["inputs_echo"]["with_correction"] is False
        assert second["inputs_echo"]["with_correction"] is True
        assert first["passive"] is False and second["passive"] is True


class TestSimulate:
    @pytest.fixture
    def sim_files(self, tmp_path):
        q0 = np.array([0.0, 0.5, 0.0, -1.2, 0.0, 0.8, 0.0])
        traj = tmp_path / "traj.csv"
        wrench = tmp_path / "wrench.csv"
        config = tmp_path / "config.json"
        sim.JointPath.constant(q0, 0.5).to_csv(traj)
        sim.WrenchProfile.ramp(0.5, [0, 0, 0, 0, -2.0, 0]).to_csv(wrench)
        config.write_text(json.dumps({
            "task_hessian": [1000, 1000, 1000, 100, 100, 100],
            "damping_ratio": 1.0,
            "frame": "body",
            "with_correction": True,
            "rate": 1000,
        }), encoding="utf-8")
        return traj, wrench, config

    def test_run_writes_trace(self, capsys, tmp_path, sim_files):
        traj, wrench, config = sim_files
        out = tmp_path / "trace.csv"
        payload = run_json(capsys, "simulate", "--model", "iiwa7.json",
                           "--config", str(config), "--wrench", str(wrench),
                           "--trajectory", str(traj), "--out", str(out))
        assert payload["steps"] == 500
        assert out.exists()
        assert payload["max_asym_ratio"] <= 1e-9

    def test_repeat_runs_byte_identical(self, capsys, tmp_path, sim_files):
        traj, wrench, config = sim_files
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            run_json(capsys, "simulate", "--model", "iiwa7.json",
                     "--config", str(config), "--wrench", str(wrench),
                     "--trajectory", str(traj), "--out", str(out))
        assert out1.read_bytes() == out2.read_bytes()

    def test_emit_plotscript(self, capsys, tmp_path, sim_files):
        traj, wrench, config = sim_files
        out = tmp_path / "trace.csv"
        script = tmp_path / "plot.gp"
        run_json(capsys, "simulate", "--model", "iiwa7.json",
                 "--config", str(config), "--wrench", str(wrench),
                 "--trajectory", str(traj), "--out", str(out),
                 "--emit-plotscript", str(script))
        text = script.read_text(encoding="utf-8")
        assert str(out) in text
        assert "sigma_max_asym" in text

    GOOD_CONFIG = {"task_hessian": [1000] * 6, "damping_ratio": 1.0, "frame": "body",
                   "with_correction": True, "rate": 1000}

    @pytest.mark.parametrize("text, message", [
        (json.dumps({"task_hessian": [1] * 6}), "missing keys"),
        (json.dumps(dict(GOOD_CONFIG, frame="weird")), "'weird'"),
        ('{"task_hessian": [1000, 1000', "not valid JSON"),
        (json.dumps(dict(GOOD_CONFIG, task_hessian=["a"] * 6)), "'a'"),
        (json.dumps(dict(GOOD_CONFIG, task_hessian=[math.nan] * 6)), "must be finite"),
    ], ids=["missing_keys", "unknown_frame", "not_json", "non_numeric_hessian",
            "nan_hessian"])
    def test_bad_config_exits_1(self, capsys, tmp_path, sim_files, text, message):
        traj, wrench, config = sim_files
        config.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--model", "iiwa7.json",
                                 "--config", str(config), "--wrench", str(wrench),
                                 "--trajectory", str(traj),
                                 "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: config: ")
        assert message in err

    def test_duration_without_a_step_exits_1(self, capsys, tmp_path, sim_files):
        traj, wrench, config = sim_files
        code, out, err = run_cli(capsys, "simulate", "--model", "iiwa7.json",
                                 "--config", str(config), "--wrench", str(wrench),
                                 "--trajectory", str(traj), "--duration", "0.0004",
                                 "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert out == ""
        assert "error: duration 0.0004 s gives no step" in err

    @pytest.mark.parametrize("role", ["wrench", "trajectory"])
    @pytest.mark.parametrize("body", [
        "t,{p}1\n0,x\n",
        "t,{p}1\n0,1\n1\n",
        "",
        "t,{p}1\n",
    ], ids=["non_numeric", "ragged", "empty", "header_only"])
    def test_malformed_profile_csv_exits_1(self, capsys, tmp_path, sim_files, role, body):
        traj, wrench, config = sim_files
        bad = tmp_path / "bad.csv"
        bad.write_text(body.format(p="F" if role == "wrench" else "q"), encoding="utf-8")
        files = {"wrench": wrench, "trajectory": traj, role: bad}
        code, out, err = run_cli(capsys, "simulate", "--model", "iiwa7.json",
                                 "--config", str(config), "--wrench", str(files["wrench"]),
                                 "--trajectory", str(files["trajectory"]),
                                 "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {bad}: ")


def _no_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


def _run_quiet(argv):
    """cli.main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(argv):
    code, out, err = _run_quiet(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        json.loads(out, parse_constant=_no_constant)


_FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
_NUMBER = hs.one_of(
    hs.floats(allow_nan=True, allow_infinity=True).map(repr),
    hs.integers(-10, 10).map(str),
    hs.sampled_from(["nan", "-inf", "1e400", "1e308", "-1e308", "1e200", "1e154", "",
                     "x", "0x1", " 1", "1e"]),
)
_NUMBERS = hs.lists(_NUMBER, max_size=8).map(",".join)
# edge values, drawn about as often as any other JSON value
_EDGE = hs.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, 0.0, -1.0,
                         10 ** 400, "x", None, [], {}, True])
_JSON = _EDGE | hs.recursive(
    _EDGE | hs.floats() | hs.integers() | hs.text(max_size=6),
    lambda inner: hs.lists(inner, max_size=4) | hs.dictionaries(hs.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=10,
)
_OPTIONAL = hs.lists(hs.sampled_from(["--frame=body", "--frame=hybrid", "--frame=inertial",
                                      "--frame=bogus", "--no-correction", "--correction"]),
                     max_size=2)


@hs.composite
def _cli_argv(draw):
    kind = draw(hs.sampled_from(["stiffness", "passivity", "example"]))
    if kind == "stiffness":
        argv = ["stiffness", "--model", draw(hs.sampled_from(["iiwa7", "anthro3r", "nope"])),
                "--q=" + draw(_NUMBERS), "--wrench=" + draw(_NUMBERS)]
        if draw(hs.booleans()):
            argv.append("--hessian=" + draw(_NUMBERS))
        return argv + draw(_OPTIONAL) + [draw(hs.sampled_from(["compute", "audit", "other"]))]
    if kind == "passivity":
        matrix = hs.lists(hs.lists(hs.floats(), max_size=4), max_size=4)
        text = draw(hs.one_of(matrix.map(json.dumps), _JSON.map(json.dumps), hs.text(max_size=20)))
        return ["passivity", "--matrix", text]
    argv = ["example", "anthro"]
    if draw(hs.booleans()):
        argv.append("--q1=" + draw(_NUMBER))
    if draw(hs.booleans()):
        argv.append("--m=" + draw(_NUMBERS))
    return argv


@_FUZZ
@given(argv=_cli_argv())
# inputs that once ended in a traceback or printed Infinity
@example(argv=["stiffness", "--model", "iiwa7", "--q=0,0.5,0,-1.2,0,0.8,0",
               "--wrench=1e200,0,0,0,0,0", "compute"])
@example(argv=["passivity", "--matrix", "[[1e308,-1e308],[1e308,1]]"])
@example(argv=["passivity", "--matrix", f"[[{10 ** 400}]]"])
@example(argv=["example", "anthro", "--m=1.7e308,1.7e308,0", "--q1=0.785"])
def test_fuzz_argv_exits_cleanly(argv):
    _assert_clean_exit(argv)


def _paths(doc, prefix=()):
    """The key path of every node below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_ANTHRO = TestModelValidate.anthro3r_doc()
_ANTHRO_PATHS = sorted(_paths(_ANTHRO), key=repr)
_DELETE = object()


def _mutate(doc, path, value):
    """Replace the node at path with value, or delete it if value is _DELETE."""
    for key in path[:-1]:
        doc = doc[key]
    if value is _DELETE:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


@hs.composite
def _model_document(draw):
    """The bundled anthro3r document with 1-3 nodes replaced or deleted."""
    doc = copy.deepcopy(_ANTHRO)
    for _ in range(draw(hs.integers(1, 3))):
        path = draw(hs.sampled_from(_ANTHRO_PATHS))
        value = draw(hs.just(_DELETE) | _JSON)
        try:
            _mutate(doc, path, value)
        except (KeyError, IndexError, TypeError):
            pass                           # an earlier change removed the path
    return doc


def _anthro_with(path, value):
    doc = copy.deepcopy(_ANTHRO)
    _mutate(doc, path, value)
    return doc


@_FUZZ
@given(doc=_model_document())
# documents that once ended in a traceback or hung
@example(doc=_anthro_with(("end_effector", "rotation", 0), math.inf))
@example(doc=_anthro_with(("links", 1, "inertia", 0), math.nan))
@example(doc=_anthro_with(("links", 0, "mass"), 10 ** 400))
@example(doc=_anthro_with(("links", 0, "inertia", 4), 1e308))
def test_fuzz_model_document_exits_cleanly(tmp_path_factory, doc):
    file = tmp_path_factory.getbasetemp() / "fuzz_model.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    _assert_clean_exit(["model", "validate", str(file)])
    _assert_clean_exit(["stiffness", "--model", str(file), "--q=0.1,0.2,0.3",
                        "--wrench=1,2,3,4,5,6", "--hessian=1,1,1,1,1,1", "audit"])
