import argparse
import copy
import json
import sys

import numpy as np
import pytest

from cpfix import cli, fixpoint
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

from helpers import loose_dual_kernels

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


# minimality_tol and minimality_max_iter were keys until minimality became an exact decision; the
# other seven removed keys became constants of fixpoint
REMOVED_KEYS = ["minimality_tol", "minimality_max_iter", "convergence_tol", "max_iter", "cesaro_cap"]
REMOVED_KEYS += ["mono_steps", "s_max", "psd_floor", "tol_eq"]
REMOVED_KEYS += ["levels"]  # sized the sampled isometry check, which the left-inverse certificate replaced


@pytest.mark.parametrize("key", ["no_such_knob"] + REMOVED_KEYS)
def test_config_rejects_unknown_keys(key):
    with pytest.raises(ParseError, match=key):
        Config.from_dict({key: 1})


@pytest.mark.parametrize(
    "config",
    [{"samples": "x"}, {"samples": -1}, {"samples": 0}, {"seed": -1}, {"seed": 2.5}],
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


def test_levels_flag_is_gone(tmp_path, capsys):
    path = demo_path(tmp_path, "tail-shift")
    with pytest.raises(SystemExit) as exc:
        main(["dilation", path, "--levels", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --levels 3" in err
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
        ("cpsemi.to_superoperator", "cpsemi.validate_family", "cpsemi.CPReport", "cpsemi.compose", "dilation.MinimalityResult")
        + ("dilation.element_is_psd", "matcore.nullspace", "matcore.nullspace_pair", "fixpoint._diagonal_limits")
        + results,
    )
    cmd_dilation(dilation)
    # two generators on M and on N = pMp; the semigroup law is one matrix identity on their superoperators
    assert counts["cpsemi.to_superoperator"] == 4
    assert counts["cpsemi.validate_family"] == 2
    # one CP report per map: the two generators on M and the two on N; ergodic_projection reads N's
    assert counts["cpsemi.CPReport"] == 4
    assert counts["cpsemi.compose"] == 0
    # N^phi and M^alpha; C*(N^phi) and rho of the compressed family only
    assert [counts[name] for name in results] == [2, 1, 1]
    # the minimality row and the suite's lifting items share one verdict
    assert counts["dilation.MinimalityResult"] == 1
    # compression and minimality share one co-invariance check: one PSD test per generator
    assert counts["dilation.element_is_psd"] == 2
    # one full real SVD per family (N^phi and M^alpha) gives both kernels of its first generator;
    # the second generator cuts B and W on their r x r blocks (4 small SVDs), and the kernel-ideal check takes one
    assert (counts["matcore.nullspace"], counts["matcore.nullspace_pair"]) == (5, 2)
    # the suite's limit_vs_mean block, and one C*(N^phi) basis block that both lifting rows read
    assert counts["fixpoint._diagonal_limits"] == 2

    counts.update(dict.fromkeys(counts, 0))
    cmd_analyze(mixture)
    assert counts["cpsemi.to_superoperator"] == 2
    assert counts["cpsemi.validate_family"] == 1
    assert counts["cpsemi.CPReport"] == 2
    assert [counts[name] for name in results] == [1, 1, 1]
    # one kernel SVD for the family, two r x r blocks for its second generator, one for the kernel ideal
    assert (counts["matcore.nullspace"], counts["matcore.nullspace_pair"]) == (3, 1)


def test_loose_convergence_tol_is_an_ergodic_projection_error(tmp_path, monkeypatch):
    # kernels whose W is cut at 1e-2 while B keeps FIXED_TOL: leaky damping's slow directions
    # join W, whose dimension then exceeds that of the fixed space
    path = demo_path(tmp_path, "leaky-damping", {"c": "0.999", "s": "0.03"})
    monkeypatch.setattr(fixpoint, "_kernels", loose_dual_kernels(monkeypatch))
    counts = count_calls(monkeypatch, ("fixpoint.ErgodicProjection",))
    rep = cmd_analyze(path)
    by_task = {e["task"]: e for e in rep["entries"]}
    note = by_task["ergodic_projection"]["note"]
    assert by_task["ergodic_projection"]["status"] == "ERROR"
    assert "fixed space has dimension 1 but its dual" in note
    assert rep["exit_code"] == 2
    # the suite fails the rows that need rho with the report's error, and builds no rho of its own
    for task in ("suite:limit_vs_mean", "suite:choi_effros", "suite:vector_bound"):
        assert (by_task[task]["status"], by_task[task]["note"]) == ("FAIL", note)
    assert counts["fixpoint.ErgodicProjection"] == 0


@pytest.mark.parametrize(
    "args",
    [["damping", "gamma=abc"], ["tail-shift", "n=x"], ["random-mixture", "dims=2,a"]]
    + [["tail-shift", "unitary=random", "seed=-1"], ["random-mixture", "terms=0"], ["random-mixture", "terms=-1"]],
    ids="-".join,
)
def test_malformed_demo_parameter_exits_two(tmp_path, capsys, args):
    out = tmp_path / "demo.json"
    assert main(["demo", *args, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: demo {args[0]}: bad parameter: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


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


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    out = str(tmp_path / "rotation.json")
    assert main(["demo", "rotation", "-o", out]) == 0
    first = len(built)
    assert first > 0 and built.count("cpfix") == 1
    assert main(["validate", out]) == 0
    assert len(built) == first
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2
    assert "the following arguments are required: file" in capsys.readouterr().err
    assert main(["validate", out]) == 0  # the reused parser still parses
    assert len(built) == first
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
