import copy
import json
import sys
import time
import warnings

import numpy as np
import pytest

from cpfix.errors import ParseError, UnknownFamily
from cpfix.matcore import op_norm
from cpfix.cpsemi import to_superoperator
from cpfix.cli import (
    Config,
    cmd_analyze,
    cmd_demo,
    cmd_dilation,
    cmd_validate,
    decode_matrix,
    encode_matrix,
    load_problem,
    main,
    write_report,
)

ALL_FAMILIES = ["tail-shift", "rotation", "damping", "leaky-damping", "random-mixture", "random-dilation"]


def demo_path(tmp_path, family, params=None):
    out = tmp_path / f"{family}.json"
    cmd_demo(family, params or {}, str(out))
    return str(out)


def strip(rep):
    rep = {k: v for k, v in rep.items() if not k.startswith("_")}
    rep.pop("wall_time_s", None)
    return rep


def test_matrix_codec_roundtrip():
    m = np.array([[1.0 + 2.0j, -0.5], [0.0, 3.25j]])
    back = decode_matrix(encode_matrix(m), "m")
    assert np.array_equal(m, back)


def test_decode_matrix_rejects_bad_shapes():
    with pytest.raises(ParseError):
        decode_matrix([[1.0, 2.0]], "m")  # entries are not pairs
    with pytest.raises(ParseError):
        decode_matrix([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]], "m")  # ragged


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_demo_files_validate(tmp_path, family):
    path = demo_path(tmp_path, family)
    rep = cmd_validate(path)
    assert rep["exit_code"] == 0, rep["entries"]


@pytest.mark.parametrize("family", ["rotation", "damping", "leaky-damping", "random-mixture"])
def test_demo_analyze_roundtrip(tmp_path, family):
    path = demo_path(tmp_path, family)
    rep = cmd_analyze(path, {"samples": 20})
    assert rep["exit_code"] == 0, [e for e in rep["entries"] if e["status"] != "PASS"]


@pytest.mark.parametrize("family", ["tail-shift", "random-dilation"])
def test_demo_dilation_roundtrip(tmp_path, family):
    path = demo_path(tmp_path, family)
    rep = cmd_dilation(path, {"samples": 20})
    assert rep["exit_code"] == 0, [e for e in rep["entries"] if e["status"] != "PASS"]


def test_superoperator_roundtrip_drift(tmp_path):
    from cpfix.dilation import build_random_instance

    inst = build_random_instance(5, n_max=3, m_max=4, d=2)
    path = demo_path(tmp_path, "random-dilation", {"seed": "5", "n_max": "3", "m_max": "4", "d": "2"})
    problem = load_problem(path)
    assert problem.structure == inst.structure
    for (name, kind, phi), gen in zip(problem.maps, inst.alpha.generators):
        drift = op_norm(to_superoperator(phi) - to_superoperator(gen))
        assert drift <= 1e-12
        assert kind == "endomorphism"


def test_reports_deterministic(tmp_path):
    path = demo_path(tmp_path, "random-mixture", {"seed": "9"})
    a = strip(cmd_analyze(path, {"samples": 15, "seed": 3}))
    b = strip(cmd_analyze(path, {"samples": 15, "seed": 3}))
    assert a == b
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ra = cmd_analyze(path, {"samples": 15, "seed": 3})
    rb = cmd_analyze(path, {"samples": 15, "seed": 3})
    write_report(ra, str(out1))
    write_report(rb, str(out2))
    ja = json.loads(out1.read_text())
    jb = json.loads(out2.read_text())
    ja.pop("wall_time_s"), jb.pop("wall_time_s")
    assert ja == jb


def test_validate_flags_noncontractive_map(tmp_path):
    path = demo_path(tmp_path, "damping")
    data = json.loads(open(path).read())
    bad = copy.deepcopy(data)
    # scale one Kraus operator up: phi(1) > 1
    for row in bad["maps"][0]["kraus"]["0,0"][0]:
        for entry in row:
            entry[0] *= 1.5
            entry[1] *= 1.5
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    rep = cmd_validate(str(bad_path))
    assert rep["exit_code"] == 1
    offenders = [e for e in rep["entries"] if e["status"] == "FAIL"]
    assert any("damping" in e["task"] for e in offenders)


def test_validate_flags_fake_endomorphism(tmp_path):
    path = demo_path(tmp_path, "damping")
    data = json.loads(open(path).read())
    data["maps"][0]["kind"] = "endomorphism"
    bad_path = tmp_path / "fake.json"
    bad_path.write_text(json.dumps(data))
    rep = cmd_validate(str(bad_path))
    assert rep["exit_code"] == 1


def test_parse_error_on_dimension_mismatch(tmp_path):
    path = demo_path(tmp_path, "damping")
    data = json.loads(open(path).read())
    data["algebra"]["blocks"] = [3]
    bad_path = tmp_path / "dims.json"
    bad_path.write_text(json.dumps(data))
    with pytest.raises(ParseError) as err:
        load_problem(str(bad_path))
    assert "kraus" in str(err.value)


def test_parse_error_on_malformed_json(tmp_path):
    bad_path = tmp_path / "broken.json"
    bad_path.write_text("{not json")
    with pytest.raises(ParseError):
        load_problem(str(bad_path))


def test_config_rejects_unknown_keys():
    with pytest.raises(ParseError):
        Config.from_dict({"no_such_knob": 1})


@pytest.mark.parametrize(
    "config",
    [{"samples": "x"}, {"samples": -1}, {"levels": 0}, {"max_iter": 0}, {"convergence_tol": -1.0}],
)
def test_invalid_config_exits_two(tmp_path, capsys, config):
    path = tmp_path / "damping.json"
    data = cmd_demo("damping", {}, str(path))
    data["config"] = config
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {next(iter(config))}:")
    assert "Traceback" not in err


def count_calls(monkeypatch, names):
    """Count calls of cpfix names, rebinding each in every cpfix namespace that holds it."""
    counts = dict.fromkeys(names, 0)
    spaces = [m for key, m in sys.modules.items() if key == "cpfix" or key.startswith("cpfix.")]
    for name in names:
        module, attr = name.split(".")
        original = getattr(sys.modules[f"cpfix.{module}"], attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for space in spaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    monkeypatch.setattr(space, key, counted)
    return counts


def test_derived_objects_built_once_per_family(tmp_path, monkeypatch):
    dilation = demo_path(tmp_path, "random-dilation", {"seed": "4", "d": "2"})
    mixture = demo_path(tmp_path, "random-mixture", {"seed": "3", "d": "2"})
    # each result class is built once per computation of its function
    results = ("fixpoint.FixedSpace", "fixpoint.CStarSpan", "fixpoint.ErgodicProjection")
    counts = count_calls(
        monkeypatch,
        ("cpsemi.to_superoperator", "cpsemi.validate_family", "cpsemi.compose", "dilation.MinimalityResult")
        + ("dilation.element_is_psd",)
        + results,
    )
    cmd_dilation(dilation)
    # two generators on M and on N = pMp, plus the four generator pairs on each
    assert counts["cpsemi.to_superoperator"] <= 12
    assert counts["cpsemi.validate_family"] == 2
    assert counts["cpsemi.compose"] <= 8
    # N^phi and M^alpha; C*(N^phi) and rho of the compressed family only
    assert [counts[name] for name in results] == [2, 1, 1]
    # the minimality row and the suite's lifting items share one verdict
    assert counts["dilation.MinimalityResult"] == 1
    # compression and minimality share one co-invariance check: one PSD test per generator
    assert counts["dilation.element_is_psd"] == 2

    counts.update(dict.fromkeys(counts, 0))
    cmd_analyze(mixture)
    assert counts["cpsemi.to_superoperator"] == 2
    assert counts["cpsemi.validate_family"] == 1
    assert [counts[name] for name in results] == [1, 1, 1]


def test_suite_checks_the_reports_rho(tmp_path, monkeypatch):
    path = tmp_path / "mixture.json"
    data = cmd_demo("random-mixture", {"seed": "3", "d": "2"}, str(path))
    data["config"]["convergence_tol"] = 1e-9
    path.write_text(json.dumps(data))
    counts = count_calls(monkeypatch, ("fixpoint.ErgodicProjection",))
    rep = cmd_analyze(str(path))
    # the ergodic_projection row and the suite use the rho built at the config's tolerance
    assert counts["fixpoint.ErgodicProjection"] == 1
    assert rep["exit_code"] == 0


def test_suite_reuses_the_reports_minimality_verdict(tmp_path, monkeypatch):
    path = tmp_path / "dilation.json"
    data = cmd_demo("random-dilation", {"seed": "4", "d": "2"}, str(path))
    data["config"]["minimality_tol"] = 1e-9
    path.write_text(json.dumps(data))
    counts = count_calls(monkeypatch, ("dilation.MinimalityResult",))
    rep = cmd_dilation(str(path))
    # the minimality row and the suite's lifting items share the verdict built at the config's tolerance
    assert counts["dilation.MinimalityResult"] == 1
    assert rep["exit_code"] == 0


def test_unknown_demo_family(tmp_path):
    with pytest.raises(UnknownFamily):
        cmd_demo("free-semigroup", {}, str(tmp_path / "x.json"))


def test_identity_control_file_exits_one(tmp_path):
    # identity endomorphism with p != 1: NonMinimal, lifting identity fails
    eye = encode_matrix(np.eye(2))
    zero = encode_matrix(np.zeros((2, 2)))
    data = {
        "version": "cpfix-1",
        "algebra": {"blocks": [2, 2]},
        "maps": [
            {
                "name": "identity",
                "kind": "endomorphism",
                "kraus": {"0,0": [eye], "1,1": [eye]},
            }
        ],
        "projection": [eye, zero],
    }
    path = tmp_path / "control.json"
    path.write_text(json.dumps(data))
    rep = cmd_dilation(str(path), {"samples": 10})
    assert rep["exit_code"] == 1
    by_task = {e["task"]: e for e in rep["entries"]}
    assert by_task["minimality"]["status"] == "FAIL"
    assert "non_minimal" in by_task["minimality"]["note"]
    assert by_task["suite:lift_identity"]["status"] == "FAIL"


def test_main_exit_codes(tmp_path, capsys):
    path = demo_path(tmp_path, "damping")
    assert main(["validate", path]) == 0
    assert main(["analyze", path, "--samples", "10"]) == 0
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_main_demo_and_report_out(tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert main(["demo", "rotation", "-o", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["analyze", str(out), "--samples", "10", "--out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["command"] == "analyze"
    assert "wall_time_s" in rep
    assert rep["config"]["samples"] == 10
    capsys.readouterr()


def test_tasks_round_trip(tmp_path):
    path = demo_path(tmp_path, "rotation")
    rep = cmd_analyze(path, {"samples": 10})
    tasks = [e for e in rep["entries"] if e["task"].startswith("task:")]
    assert len(tasks) == 1
    assert tasks[0]["status"] == "PASS"
    assert "diverges" in tasks[0]["note"]


def test_huge_max_iter_diverges_quickly_without_warnings(tmp_path):
    path = tmp_path / "rotation.json"
    data = cmd_demo("rotation", {}, str(path))
    data["config"] = {"max_iter": 2**70}
    path.write_text(json.dumps(data))
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert time.perf_counter() - t0 < 5.0
    rep = json.loads((tmp_path / "report.json").read_text())
    (task,) = [e for e in rep["entries"] if e["task"].startswith("task:")]
    assert (task["status"], task["note"]) == ("PASS", "outcome: diverges")
    # max_iter = 2^70 is cut to 40 squarings, where |e^{i pi/3}| still rounds to 1 either way
    assert task["residuals"]["detail"].startswith("no convergence within 1099511627775 steps")
