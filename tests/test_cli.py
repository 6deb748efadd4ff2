import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from finsler4 import classify, cli, conformal, exprdsl, frame, geometry, jets, metrics, oracle
from finsler4.jets import SpecError
from finsler4.metrics import SamplePlan
from regen_goldens import REPORTS, SPECS, drift, load


@pytest.fixture()
def quartic_spec(tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({"family": "quartic_minkowski", "samples": 4, "seed": 7}))
    return str(path)


@pytest.fixture()
def randers_spec(tmp_path):
    path = tmp_path / "randers.json"
    path.write_text(
        json.dumps(
            {"family": "randers", "params": {"b": ["0.1*x2", 0, 0, 0]},
             "samples": 4, "seed": 7}
        )
    )
    return str(path)


@pytest.fixture()
def conformal_spec(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(
        json.dumps(
            {"family": "quartic_minkowski", "sigma": "0.1*x1", "samples": 4, "seed": 7}
        )
    )
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_quartic(capsys, quartic_spec):
    code, out, _ = _run(capsys, ["classify", quartic_spec])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"] == {
        "riemannian": "no",
        "locally_minkowski_in_chart": "yes",
        "berwald": "yes",
        "landsberg": "yes",
    }
    assert doc["effective_config"]["samples"] == 4


def test_classify_randers_nonflat(capsys, randers_spec):
    code, out, _ = _run(capsys, ["classify", randers_spec])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["berwald"] == "no"
    assert doc["verdicts"]["landsberg"] == "no"


def test_classify_is_byte_deterministic(capsys, quartic_spec):
    _, out1, _ = _run(capsys, ["classify", quartic_spec])
    _, out2, _ = _run(capsys, ["classify", quartic_spec])
    assert out1 == out2


def test_classify_override_changes_echo(capsys, quartic_spec, randers_spec):
    code, out, _ = _run(capsys, ["classify", quartic_spec, "--samples", "2", "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["effective_config"] == {
        "samples": 2, "seed": 1, "tol": 1e-06,
    }
    # a valid --tol is the tolerance of the run; on Randers 0.05 moves a verdict
    for path, tol in ((quartic_spec, "1e-3"), (randers_spec, "0.05")):
        code, out, _ = _run(capsys, ["classify", path, "--samples", "2", "--seed", "1",
                                     "--tol", tol])
        assert code == 0
        doc = json.loads(out)
        assert doc["effective_config"] == {"samples": 2, "seed": 1, "tol": float(tol)}
        spec, _ = cli._load_spec(path)
        report = classify.classify_metric(spec, SamplePlan(2, 1), float(tol))
        assert doc["verdicts"] == report.verdicts
        assert doc["route_agreement"] == report.route_agreement
    assert doc["verdicts"]["berwald"] == "undetermined"


def test_conformal_runs_at_a_valid_tolerance(capsys, conformal_spec):
    code, out, _ = _run(capsys, ["conformal", conformal_spec, "--tol", "1e-3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["effective_config"] == {"samples": 4, "seed": 7, "tol": 0.001}
    audit = conformal.audit_pair(*cli._load_spec(conformal_spec), tol=1e-3)
    assert doc["landsberg_cooccurrence"] == audit.landsberg_summary
    assert doc["berwald_cooccurrence"] == audit.berwald_summary


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = _run(capsys, ["classify", str(bad)])
    assert code == 2
    assert "spec error" in err


def test_unknown_field_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"family": "quartic_minkowski", "zzz": 1}))
    code, _, err = _run(capsys, ["classify", str(bad)])
    assert code == 2
    assert "zzz" in err


def test_conformal_requires_sigma(capsys, quartic_spec):
    code, _, err = _run(capsys, ["conformal", quartic_spec])
    assert code == 2
    assert "conformal factor" in err


def test_conformal_requires_sigma_in_a_fresh_process():
    # the CLI loads the conformal module only inside its command, so only a
    # fresh process shows that the missing factor is still a spec error
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "finsler4.cli", "conformal", "tests/goldens/quartic_small.json"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "finsler4: spec error: the spec carries no conformal factor\n"


@pytest.mark.parametrize("L", [
    "sqrt(y1^2+y2^2+y3^2+y4^2)^1e400",
    "sqrt(y1^2+y2^2+y3^2+y4^2)^-1e400",
    "sqrt(y1^2+y2^2+y3^2+y4^2)*1e400",
])
def test_number_that_is_not_finite_exits_2(capsys, tmp_path, L):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({"family": "expression", "L": L, "samples": 2, "seed": 1}))
    code, out, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("finsler4: spec error: ") and "'1e400' is not finite" in err


def _box(lo, hi):
    return {"family": "quartic_minkowski", "domain": {"x_box": [[0, 1]] * 3 + [[lo, hi]]}}


def _g0(entry):
    return {"family": "riemannian",
            "params": {"g0": [[entry, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}


_NOT_FINITE = "expected a finite number or expression string, got "


@pytest.mark.parametrize("doc, message", [
    (_box(0, math.nan), "x_box bounds and widths must be finite"),
    (_box(0, math.inf), "x_box bounds and widths must be finite"),
    (_box(-math.inf, 1), "x_box bounds and widths must be finite"),
    (_box(-1e308, 1e308), "x_box bounds and widths must be finite"),
    (_box(0, True), "'x_box' must be four [lo, hi] pairs"),
    (_g0(math.inf), _NOT_FINITE + "inf"),
    (_g0(math.nan), _NOT_FINITE + "nan"),
    (_g0(True), _NOT_FINITE + "True"),
    (_g0(10**400), _NOT_FINITE + "1000"),
], ids=["box_nan", "box_inf", "box_minus_inf", "box_too_wide", "box_true", "g0_inf", "g0_nan",
        "g0_true", "g0_int_past_float"])
def test_number_in_the_spec_that_is_not_finite_or_is_a_bool_exits_2(capsys, tmp_path, doc,
                                                                     message):
    # json writes and reads NaN and Infinity, and Python takes true for 1
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("finsler4: spec error: ") and message in err


@pytest.mark.parametrize("field, value", [
    ("sigma", 0.3), ("sigma", None), ("L", 5), ("L", ["y1"]),
])
def test_expression_field_that_is_not_a_string_exits_2(capsys, tmp_path, field, value):
    doc = {"family": "quartic_minkowski" if field == "sigma" else "expression", field: value}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    for command in ("classify", "conformal"):
        code, out, err = _run(capsys, [command, str(path)])
        assert code == 2 and out == ""
        assert err == f"finsler4: spec error: '{field}' must be an expression string\n"


def test_expression_in_params_that_is_not_a_string_exits_2(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "expression", "params": {"L": 5}}))
    code, out, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert err == "finsler4: spec error: 'L' must be an expression string\n"


_G0_MESSAGE = "riemannian requires a 4x4 'g0' matrix"
_B_MESSAGE = "randers requires four 'b' entries"


@pytest.mark.parametrize("params, message", [
    ({"g0": ["1000", "0100", "0010", "0001"]}, _G0_MESSAGE),
    ({"g0": 5}, _G0_MESSAGE),
    ({"b": "0000"}, _B_MESSAGE),
    ({"b": 7}, _B_MESSAGE),
], ids=["g0_rows_are_strings", "g0_number", "b_string", "b_number"])
def test_g0_and_b_that_are_not_lists_exit_2(capsys, tmp_path, params, message):
    # a string has a length, and its characters would be read as entries
    family = "riemannian" if "g0" in params else "randers"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": family, "params": params, "samples": 2}))
    code, out, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert err == f"finsler4: spec error: {message}\n"


def test_rejected_spec_value_is_echoed_short(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_g0(10**400)))
    code, out, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert err.endswith(_NOT_FINITE + "1" + "0" * 39 + "...\n")
    assert len(err.encode()) < 200


_SQRT = "sqrt(y1^2+y2^2+y3^2+y4^2)"  # six levels deep
_DEPTH = exprdsl.MAX_DEPTH


def _spec_file(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**doc, "samples": 2, "seed": 1}))
    return str(path)


def _one_spec_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("finsler4: spec error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


# (L, sigma) at the depth bound; each term of a sum and each bracket adds a level
_AT_DEPTH_BOUND = {
    "L_terms": (_SQRT + "+0*y1" * (_DEPTH - 6), "0.1*x1"),
    "L_brackets": ("(" * (_DEPTH - 2) + _SQRT + ")" * (_DEPTH - 2), "0.1*x1"),
    "sigma_terms": (_SQRT, "0.1*x1" + "+0*x2" * (_DEPTH - 2)),
    "sigma_brackets": (_SQRT, "(" * (_DEPTH - 1) + "0.1*x1" + ")" * (_DEPTH - 1)),
}
_PAST_DEPTH_BOUND = {
    "L_terms": (_SQRT + "+0*y1" * (_DEPTH - 5), "0.1*x1"),
    "L_brackets": ("(" * (_DEPTH - 1) + _SQRT + ")" * (_DEPTH - 1), "0.1*x1"),
    "sigma_terms": (_SQRT, "0.1*x1" + "+0*x2" * (_DEPTH - 1)),
    "sigma_brackets": (_SQRT, "(" * _DEPTH + "0.1*x1" + ")" * _DEPTH),
    "L_3000_terms": (_SQRT + "+0*y1" * 3000, "0.1*x1"),
    "L_1200_brackets": ("(" * 1200 + _SQRT + ")" * 1200, "0.1*x1"),
    "sigma_3000_terms": (_SQRT, "0.1*x1" + "+0*x2" * 3000),
    "L_3000_signs": ("-" * 3000 + _SQRT, "0.1*x1"),
}


@pytest.mark.parametrize("name", list(_AT_DEPTH_BOUND))
def test_expression_at_the_depth_bound_evaluates(capsys, tmp_path, name):
    L, sigma = _AT_DEPTH_BOUND[name]
    path = _spec_file(tmp_path, {"family": "expression", "L": L, "sigma": sigma})
    for command in ("classify", "conformal"):
        code, out, err = _run(capsys, [command, path])
        assert code == 0 and err == ""
        assert not any("eval_error" in p for p in json.loads(out)["points"])


@pytest.mark.parametrize("name", list(_PAST_DEPTH_BOUND))
def test_expression_past_the_depth_bound_is_a_spec_error(capsys, tmp_path, name):
    L, sigma = _PAST_DEPTH_BOUND[name]
    path = _spec_file(tmp_path, {"family": "expression", "L": L, "sigma": sigma})
    for command in ("classify", "conformal"):
        code, out, err = _run(capsys, [command, path])
        _one_spec_error(code, out, err)
        assert f"deeper than {_DEPTH} levels" in err


@pytest.mark.parametrize("L, message", [
    (_SQRT + "*" + "1" * 401, "is not finite"),
    (_SQRT + "*" + "y5" * 200, "unknown identifier"),
    (_SQRT + " " + "y1" * 200, "unexpected trailing"),
], ids=["long_number", "long_identifier", "long_trailing_token"])
def test_parser_error_echoes_a_short_token(capsys, tmp_path, L, message):
    path = _spec_file(tmp_path, {"family": "expression", "L": L})
    code, out, err = _run(capsys, ["classify", path])
    _one_spec_error(code, out, err)
    assert message in err and "...'" in err


_QUARTIC = "quartic_minkowski"


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "spec document must be a JSON object"),
    ({"family": 5}, "spec requires a 'family' string"),
    ({"family": _QUARTIC, "params": []}, "'params' must be an object"),
    ({"family": _QUARTIC, "domain": 5}, "'domain' must be an object"),
    ({"family": _QUARTIC, "domain": {"x_box": [[0, 1]] * 3}},
     "'x_box' must have exactly four intervals"),
    ({"family": _QUARTIC, "domain": {"y_cone": "bogus"}}, "unknown y_cone 'bogus'"),
    (_box(1, 0), "x_box interval with lo > hi"),
    ({"family": _QUARTIC, "samples": "16"}, "'samples' must be an integer"),
    ({"family": _QUARTIC, "seed": 1.5}, "'seed' must be an integer"),
    ({"family": _QUARTIC, "samples": -1}, "sample count must be non-negative"),
    ({"family": _QUARTIC, "params": {"a": 1}}, "quartic_minkowski takes no parameters"),
    ({"family": "berwald_moor", "params": {"a": 1}}, "berwald_moor takes no parameters"),
    ({"family": "berwald_moor", "domain": {"y_cone": "all_nonzero"}},
     "berwald_moor requires the all_positive cone"),
    ({"family": "expression"}, "expression family requires 'L'"),
    ({"family": "randers", "params": {"b": ["y1", 0, 0, 0]}},
     "randers drift coefficients may depend on x1..x4 only"),
    (_g0("1+y2"), "riemannian coefficients may depend on x1..x4 only"),
    ({"family": "expression", "L": _SQRT + " $ y3"}, "unexpected character '$' (at offset 26)"),
    ({"family": "expression", "L": "sqrt(y1^2+y2^2"},
     "expected ')', found 'end of input' (at offset 14)"),
    ({"family": "expression", "L": "y1^(2)"}, "expected a numeric exponent (at offset 3)"),
], ids=["not_an_object", "family_not_a_string", "params_not_an_object",
        "domain_not_an_object", "three_intervals", "unknown_cone", "lo_above_hi",
        "samples_string", "seed_float", "samples_negative", "quartic_params",
        "berwald_moor_params", "berwald_moor_cone", "expression_without_L", "randers_b_in_y",
        "riemannian_g0_in_y", "unexpected_character", "unclosed_bracket",
        "exponent_not_numeric"])
def test_rejected_spec_document_exits_2_with_one_line(capsys, tmp_path, doc, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert err == f"finsler4: spec error: {message}\n"


# one refused document per SpecError class; the conformal command runs each,
# and the last is refused by audit_pair, not by the schema
_SPEC_ERRORS = {
    exprdsl.ExprSyntaxError: {"family": "expression", "L": "y1 $"},
    exprdsl.UnknownIdentifier: {"family": "expression", "L": "z1"},
    exprdsl.NonConstantExponent: {"family": "expression", "L": "y1^x1"},
    metrics.InvalidParameters: {"family": "bogus"},
    metrics.EmptyDomain: _box(1, 0),
    metrics.SigmaUsesY: {"family": _QUARTIC, "sigma": "y1"},
    metrics.SpecSchemaError: {"family": _QUARTIC, "bogus": 1},
    conformal.MissingSigma: {"family": _QUARTIC},
}


@pytest.mark.parametrize("cls", list(_SPEC_ERRORS), ids=lambda cls: cls.__name__)
def test_each_refused_input_raises_its_own_spec_error_class(capsys, tmp_path, cls):
    assert issubclass(cls, SpecError)
    doc = _SPEC_ERRORS[cls]
    with pytest.raises(SpecError) as refused:
        spec, plan = metrics.spec_from_json_dict(doc)
        conformal.audit_pair(spec, plan)
    assert type(refused.value) is cls
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["conformal", str(path)])
    assert code == 2 and out == ""
    assert err == f"finsler4: spec error: {refused.value}\n"


@pytest.mark.parametrize("cls", [
    jets.DomainViolation, jets.CapMismatch, jets.CapTooSmall, jets.OrderExceedsCaps,
    jets.InvalidArgument, geometry.SingularMetric, conformal.ExtractionUnreliable,
    oracle.StencilLeavesDomain, frame.FrameError, frame.VanishingTorsion,
    frame.NotPositiveDefinite, frame.DegenerateSeed, frame.SeedsDiffer,
], ids=lambda cls: cls.__name__)
def test_a_failed_evaluation_is_no_spec_error(cls):
    assert issubclass(cls, jets.Finsler4Error) and not issubclass(cls, SpecError)


def test_a_spec_file_that_cannot_be_read_exits_2_with_one_line(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = _run(capsys, ["classify", str(missing)])
    assert code == 2 and out == ""
    assert err == (f"finsler4: spec error: cannot read spec file: "
                   f"[Errno 2] No such file or directory: {str(missing)!r}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_report_that_fails_to_write_exits_2_with_one_line(capsys, quartic_spec):
    code, out, err = _run(capsys, ["classify", quartic_spec, "--output", "/dev/full"])
    assert code == 2 and out == ""
    assert err.startswith("finsler4: spec error: cannot write report: ")
    assert err.count("\n") == 1


def test_a_point_where_L_is_not_positive_is_an_eval_error_record(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "expression", "L": _SQRT + "-2*y1",
                                "samples": 4, "seed": 3}))
    code, out, _ = _run(capsys, ["classify", str(path)])
    assert code == 0
    points = json.loads(out)["points"]
    assert [p.get("eval_error") for p in points] == [
        None, "fundamental function not positive here", None, None,
    ]


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_report_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, quartic_spec, where):
    output = tmp_path / "missing" / "out.json" if where == "missing_directory" else tmp_path
    code, out, err = _run(capsys, ["classify", quartic_spec, "--output", str(output)])
    assert code == 2 and out == ""
    assert err.startswith("finsler4: spec error: cannot write report: ")
    assert err.count("\n") == 1


_GOLDENS = Path(__file__).parent / "goldens"


def test_unwritable_report_is_refused_before_a_failing_evaluation(capsys, tmp_path):
    # y = 0 is outside every cone (exit 3), but the output path is checked first
    output = tmp_path / "missing" / "out.json"
    code, out, err = _run(capsys, ["frame", str(_GOLDENS / "quartic_small.json"), "--x", "0,0,0,0",
                                   "--y", "0,0,0,0", "--output", str(output)])
    _one_spec_error(code, out, err)
    assert "cannot write report" in err


def test_unwritable_report_is_refused_before_any_point_is_evaluated(capsys, tmp_path, monkeypatch):
    from finsler4 import classify

    def refuse(*args, **kwargs):
        raise AssertionError("classify_metric ran before the output path was checked")

    monkeypatch.setattr(classify, "classify_metric", refuse)
    output = tmp_path / "missing" / "out.json"
    code, out, err = _run(capsys, ["classify", str(_GOLDENS / "randers_small.json"),
                                   "--samples", "200", "--output", str(output)])
    _one_spec_error(code, out, err)
    assert "cannot write report" in err


def test_failed_run_keeps_the_bytes_of_an_existing_report(capsys, tmp_path):
    output = tmp_path / "out.json"
    output.write_bytes(b"an earlier report\n")
    code, out, err = _run(capsys, ["frame", str(_GOLDENS / "quartic_small.json"), "--x", "0,0,0,0",
                                   "--y", "0,0,0,0", "--output", str(output)])
    assert code == 3 and out == "" and "DomainViolation" in err
    assert output.read_bytes() == b"an earlier report\n"


@pytest.mark.parametrize("code, argv", [
    (2, ["classify", "{spec}"]),
    (3, ["frame", str(_GOLDENS / "quartic_small.json"), "--x", "0,0,0,0", "--y", "0,0,0,0"]),
])
def test_failed_run_leaves_no_report_where_there_was_none(capsys, tmp_path, code, argv):
    spec = tmp_path / "nope.json"
    spec.write_text(json.dumps({"family": "nope"}))
    output = tmp_path / "out.json"
    got, out, err = _run(capsys, [a.format(spec=spec) for a in argv] + ["--output", str(output)])
    assert got == code and out == "" and err.count("\n") == 1
    assert not output.exists()


def test_conformal_report(capsys, conformal_spec):
    code, out, _ = _run(capsys, ["conformal", conformal_spec])
    assert code == 0
    doc = json.loads(out)
    assert doc["landsberg_cooccurrence"]["disagree"] == 0
    assert doc["berwald_cooccurrence"]["disagree"] == 0
    point = doc["points"][0]
    assert "case" in point and "landsberg_residuals" in point
    assert "max_cartan_hderiv" in point["direct_barred"]


@pytest.mark.parametrize("command, doc", [
    ("classify", {"family": "randers", "params": {"b": ["0.1*x2", 0, 0, 0]}, "samples": 8}),
    ("conformal", {"family": "quartic_minkowski", "sigma": "0.1*x1", "samples": 4}),
])
def test_reports_on_the_shifted_ball_cone(capsys, tmp_path, command, doc):
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps({**doc, "domain": {"y_cone": "unit_ball_interior_shifted"}}))
    code, out, _ = _run(capsys, [command, str(path)])
    assert code == 0
    report = json.loads(out)
    assert len(report["points"]) == doc["samples"]
    assert not any("eval_error" in p for p in report["points"])
    if command == "classify":
        summary = report["route_agreement"]["summary"]
        agree = (summary["landsberg_agree"], summary["berwald_agree"])
    else:
        agree = (report["landsberg_cooccurrence"]["agree"], report["berwald_cooccurrence"]["agree"])
    assert agree == (doc["samples"], doc["samples"])


def test_frame_dump(capsys, quartic_spec):
    code, out, _ = _run(
        capsys, ["frame", quartic_spec, "--x", "0,0,0,0", "--y", "1,2,1,1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["orthonormality_residual"] <= 1e-9
    assert abs(
        doc["main_scalars"]["H"] + doc["main_scalars"]["I"] + doc["main_scalars"]["K"]
        - doc["L"] * doc["torsion_norm"]
    ) <= 1e-8
    assert doc["frame"]["gauge_tag"]["seeds"]


@pytest.mark.parametrize("command", ["classify", "conformal"])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tolerance_that_is_not_a_finite_positive_number_exits_2(capsys, conformal_spec,
                                                                command, tol):
    code, out, err = _run(capsys, [command, conformal_spec, "--tol", tol])
    assert code == 2 and out == ""
    assert "tol needs a finite number > 0" in err


@pytest.mark.parametrize("flag,value", [("--x", "nan,0,0,0"), ("--x", "0,0,inf,0"),
                                        ("--y", "1,nan,1,1"), ("--y", "1,2,1,-inf")])
def test_frame_coordinate_that_is_not_finite_exits_2(capsys, quartic_spec, flag, value):
    point = {"--x": "0,0,0,0", "--y": "1,2,1,1", flag: value}
    code, out, err = _run(capsys, ["frame", quartic_spec, "--x", point["--x"], "--y", point["--y"]])
    assert code == 2 and out == ""
    assert f"{flag} needs four finite numbers" in err


def test_frame_vanishing_torsion_exit_4(capsys, quartic_spec):
    code, out, _ = _run(
        capsys, ["frame", quartic_spec, "--x", "0,0,0,0", "--y", "1,1,1,1"]
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["error"]["type"] == "VanishingTorsion"


def test_frame_not_positive_definite_exit_4(capsys, tmp_path):
    path = tmp_path / "bm.json"
    path.write_text(json.dumps({"family": "berwald_moor"}))
    code, out, _ = _run(capsys, ["frame", str(path), "--x", "0,0,0,0", "--y", "1,2,1,2"])
    assert code == 4
    doc = json.loads(out)
    assert doc["error"]["type"] == "NotPositiveDefinite"


def test_float_formatting_17_digits():
    text = cli.dumps({"v": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert cli.dumps(float("nan")) == "null"
    assert cli.dumps([1, True, None, "s"]).split()  # smoke: all scalar kinds


def test_selftest_passes(capsys, tmp_path):
    out_path = tmp_path / "selftest.json"
    code = cli.main(["selftest", "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["failed"] == 0
    assert all(c["ok"] for c in doc["checks"])


def test_selftest_is_byte_deterministic(capsys, tmp_path):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        assert cli.main(["selftest", "--output", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    assert doc["failed"] == 0
    assert all(c["relative_error"] <= 1e-7 for c in doc["checks"])


@pytest.mark.parametrize("argv,golden", REPORTS)
def test_output_matches_golden(capsys, argv, golden):
    import pathlib

    d = pathlib.Path(__file__).parent / "goldens"
    argv = [a.format(d=d) for a in argv]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (d / golden).read_text()


@pytest.mark.parametrize("argv,golden", [r for r in REPORTS if r[0][0] == "conformal"])
def test_condition_records_carry_the_golden_report_rows(argv, golden):
    # each condition system's record holds the labels of the report's
    # *_residuals in their order, and the very floats the report prints
    from finsler4 import conformal, metrics

    d = Path(__file__).parent / "goldens"
    spec, plan = metrics.spec_from_json_dict(json.loads((d / Path(argv[1]).name).read_text()))
    reports = conformal.evaluate_points(spec, metrics.sample_domain(spec.domain, plan))
    points = json.loads((d / golden).read_text())["points"]
    assert len(reports) == len(points)
    for rep, point in zip(reports, points):
        assert set(rep.condition_rows) == ({"landsberg", "berwald"} if "case" in point else set())
        for kind, record in rep.condition_rows.items():
            rows = point[f"{kind}_residuals"]
            assert record["labels"] == tuple(rows)
            for key in ("residual", "scale"):
                assert [v.hex() for v in record[key].tolist()] == \
                    [float(row[key]).hex() for row in rows.values()], (golden, kind, key)


@pytest.mark.parametrize("name,doc", SPECS.items())
def test_golden_spec_file_matches_regen(name, doc):
    # perfbench and the golden reports read these inputs; regen writes them
    import pathlib

    path = pathlib.Path(__file__).parent / "goldens" / name
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


def test_golden_drift_counts_numbers_and_flags_every_other_change():
    old = {"a": [1.5, 0, 3], "b": {"c": "yes", "d": True}, "e": None}
    assert drift(old, old) == (0, 0.0, None, [])
    # a float that is exactly integral prints without a decimal point
    moved = {"a": [1.5 + 2.5e-16, 1e-17, 3], "b": {"c": "yes", "d": True}, "e": None}
    changed, worst, where, other = drift(old, moved)
    assert (changed, where, other) == (2, "$.a[0]", [])
    assert worst == pytest.approx(1e-16)
    # the path names the largest change, wherever it sits
    nested = {**old, "f": [[2.0]]}
    moved = {**nested, "a": [1.5 + 2.5e-16, 0, 3], "f": [[2.5]]}
    changed, worst, where, other = drift(nested, moved)
    assert (changed, where, other) == (2, "$.f[0][0]", [])
    assert worst == pytest.approx(0.5 / 3.0)
    # a zero whose sign moved is a changed number, and -0 reads as -0.0
    assert drift({"a": 0}, {"a": -0.0}) == (1, 0.0, "$.a", [])
    assert drift(load('{"a": -0}'), load('{"a": 0}')) == (1, 0.0, "$.a", [])
    assert drift(load('{"a": -0}'), load('{"a": -0.0}')) == (0, 0.0, None, [])
    for new in (
        {"a": [1.5, 0, 4], "b": {"c": "yes", "d": True}, "e": None},
        {"a": [1.5, 0, 3], "b": {"c": "no", "d": True}, "e": None},
        {"a": [1.5, 0, 3], "b": {"c": "yes", "d": False}, "e": None},
        {"a": [1.5, 0, 3], "b": {"c": "yes", "d": True}, "e": 1.0},
        {"a": [1.5, 0], "b": {"c": "yes", "d": True}, "e": None},
        {"a": [1.5, 0, 3], "b": {"d": True, "c": "yes"}, "e": None},
        {"a": [1.5, 0, 3], "b": {"c": "yes", "d": 1.0}, "e": None},
    ):
        assert drift(old, new)[3], new


def test_classify_output_file(tmp_path, quartic_spec, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["classify", quartic_spec, "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["command"] == "classify"


def test_frame_outside_domain_exits_3(tmp_path, capsys):
    path = tmp_path / "bm.json"
    path.write_text(json.dumps({"family": "berwald_moor"}))
    code = cli.main(["frame", str(path), "--x", "0,0,0,0", "--y", "1,-1,1,1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "evaluation failed" in err


def test_negative_seed_option_exits_2(capsys):
    golden = str(Path(__file__).parent / "goldens" / "quartic_small.json")
    code, out, err = _run(capsys, ["classify", golden, "--seed", "-1"])
    assert code == 2 and out == ""
    assert err == "finsler4: spec error: sample seed must be non-negative\n"


def test_negative_seed_in_the_spec_file_exits_2(capsys, tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"family": "quartic_minkowski", "samples": 2, "seed": -3}))
    code, out, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert err == "finsler4: spec error: sample seed must be non-negative\n"


def test_huge_direction_exits_3_with_one_line_on_stderr():
    # a fresh process, so a NumPy warning would reach stderr as it does for a user
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "finsler4.cli", "frame", "tests/goldens/quartic_small.json",
         "--x", "0,0,0,0", "--y", "1e200,1,1,1"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("finsler4: evaluation failed: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_point_outside_the_cone_prints_plain_floats(capsys, tmp_path):
    path = tmp_path / "bm.json"
    path.write_text(json.dumps({"family": "berwald_moor"}))
    code, out, err = _run(capsys, ["frame", str(path), "--x", "0,0,0,0", "--y", "1,-1,1,1"])
    assert code == 3 and out == ""
    assert "point y=[1.0, -1.0, 1.0, 1.0] outside the all_positive cone" in err
    assert "np.float64" not in err


def test_bad_point_syntax_exits_2(capsys, quartic_spec):
    code = cli.main(["frame", quartic_spec, "--x", "0,0,0", "--y", "1,2,1,1"])
    capsys.readouterr()
    assert code == 2
    code, out, err = _run(capsys, ["frame", quartic_spec, "--x", "a,b,c,d", "--y", "1,2,1,1"])
    assert code == 2 and out == ""
    assert err == "finsler4: spec error: --x needs four comma-separated numbers\n"


def test_randers_drift_undefined_at_a_probe_exits_2(capsys, tmp_path):
    # 0.1/x1 cannot be evaluated at the centre of the default box
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(
        {"family": "randers", "params": {"b": ["0.1*x1^-1", 0, 0, 0]}, "samples": 2}
    ))
    code, _, err = _run(capsys, ["classify", str(path)])
    assert code == 2
    assert "spec error" in err and "x=[0.0, 0.0, 0.0, 0.0]" in err


def test_randers_drift_reaching_one_at_an_inner_corner_exits_2(capsys, tmp_path):
    # |b| vanishes at the all-lower corner, the all-upper corner and the
    # centre, but reaches 1.8 at the corners where x1 = -x2 = +-1
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(
        {"family": "randers", "params": {"b": ["0.9*(x1-x2)", 0, 0, 0]},
         "samples": 32, "seed": 1}
    ))
    code, out, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert "|b(x)| >= 1" in err and "x=[-1.0, 1.0, -1.0, -1.0]" in err


def test_randers_drift_overflowing_at_a_probe_exits_2(capsys, tmp_path):
    # exp(1000) overflows at the first probed corner with x1 = 1
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(
        {"family": "randers", "params": {"b": ["0.1*exp(1000*x1)", 0, 0, 0]},
         "samples": 8, "seed": 1}
    ))
    code, out, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert "spec error" in err and "x=[1.0, -1.0, -1.0, -1.0]" in err


def test_randers_drift_turning_nan_at_a_probe_exits_2(capsys, tmp_path):
    # 1e200*1e200 overflows to inf, and sin(-inf) at the first probed corner
    # is nan: a spec error, not a math error of the evaluation
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(
        {"family": "randers", "params": {"b": ["0.1*sin(1e200*1e200*x1)", 0, 0, 0]}}
    ))
    code, out, err = _run(capsys, ["classify", str(path)])
    assert code == 2 and out == ""
    assert "spec error" in err and "x=[-1.0, -1.0, -1.0, -1.0]" in err


@pytest.mark.parametrize("command, spec, messages", [
    ("classify", {"family": "quartic_minkowski", "sigma": "exp(1000*x1)"},
     {"the jet of L is not finite here"}),
    ("conformal", {"family": "quartic_minkowski", "sigma": "exp(1000*x1)"},
     {"the jet of L is not finite here"}),
    ("classify", {"family": "expression",
                  "L": "(x1+2)^2000*(y1^2+y2^2+y3^2+y4^2)^0.5"},
     {"the jet of L is not finite here", "the jet of L^2 is not finite here"}),
])
def test_overflowing_points_become_eval_error_records(capsys, tmp_path, command, spec, messages):
    # exp(1000*x1) overflows for x1 > 0.71, and (x1+2)^2000 or its square
    # on most of the box: each such point is a record, the others evaluate
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({**spec, "samples": 8, "seed": 1}))
    code, out, _ = _run(capsys, [command, str(path)])
    assert code == 0
    points = json.loads(out)["points"]
    failed = [p["eval_error"] for p in points if "eval_error" in p]
    assert 0 < len(failed) < len(points)
    assert set(failed) <= messages


def test_conformal_homothetic_case_everywhere(capsys, tmp_path):
    path = tmp_path / "hom.json"
    path.write_text(
        json.dumps(
            {"family": "quartic_minkowski", "sigma": "0.3", "samples": 4, "seed": 7}
        )
    )
    code, out, _ = _run(capsys, ["conformal", str(path)])
    assert code == 0
    doc = json.loads(out)
    for point in doc["points"]:
        assert point["case"] == "homothetic"
        worst = max(
            v["residual"] for v in point["landsberg_residuals"].values()
        )
        assert worst <= 1e-9
        inv = point["invariance_residuals"]
        assert max(v for v in inv.values() if v is not None) <= 1e-9


def test_constant_sigma_reports_the_same_bytes_as_a_jet_of_it(capsys, tmp_path):
    # exp of the number 0.45 and of the jet of 0.45+0*x1 share one series,
    # so the rescaled spaces and the two reports agree bit for bit
    outs = []
    for sigma in ("0.45", "0.45+0*x1"):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(
            {"family": "quartic_minkowski", "sigma": sigma, "samples": 2, "seed": 3}
        ))
        code, out, _ = _run(capsys, ["conformal", str(path)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_classify_schema_keys(capsys, quartic_spec):
    _, out, _ = _run(capsys, ["classify", quartic_spec])
    doc = json.loads(out)
    assert list(doc) == [
        "command", "effective_config", "verdicts", "deciding_residuals",
        "notes", "points", "route_agreement",
    ]
    assert "summary" in doc["route_agreement"]


def test_conformal_records_points_outside_the_domain(capsys, tmp_path):
    # the drift passes the Randers validity probe but reaches |b| >= 1 at
    # some samples; those points become records instead of aborting the run
    path = tmp_path / "drift.json"
    path.write_text(
        json.dumps(
            {"family": "randers", "params": {"b": ["1.1*sin(3*x1)", 0, 0, 0]},
             "sigma": "0.1*x1", "samples": 16, "seed": 1}
        )
    )
    code, out, _ = _run(capsys, ["conformal", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 16
    outside = [abs(1.1 * math.sin(3 * p["x"][0])) >= 1 for p in doc["points"]]
    assert any(outside) and not all(outside)
    for point, out_of_domain in zip(doc["points"], outside):
        if out_of_domain:
            assert point["eval_error"] == "randers drift reached |b(x)| >= 1"
            assert list(point) == ["x", "y", "eval_error"]
        else:
            assert "eval_error" not in point and "case" in point
    for key in ("landsberg_cooccurrence", "berwald_cooccurrence"):
        summary = doc[key]
        assert list(summary) == ["agree", "disagree", "inconclusive", "skipped_frame_errors"]
        assert sum(summary.values()) == outside.count(False)


@pytest.mark.parametrize("spec", [
    {"family": "quartic_minkowski"},
    {"family": "randers", "params": {"b": [0.2, 0.1, 0, 0]}},
    {"family": "randers", "params": {"b": ["0.1*x2", 0, 0, 0]}},
])
def test_homothetic_factor_preserves_every_verdict(capsys, tmp_path, spec):
    # a constant sigma rescales every tensor uniformly, so no character changes
    verdicts = []
    for doc in (spec, {**spec, "sigma": "0.4"}):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**doc, "samples": 8, "seed": 5}))
        code, out, _ = _run(capsys, ["classify", str(path)])
        assert code == 0
        verdicts.append(json.loads(out)["verdicts"])
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("sigma, verdict", [("0.1*x1", "no"), ("0.4", "yes")])
def test_conformal_change_of_a_landsberg_space(capsys, tmp_path, sigma, verdict):
    # Hashiguchi (1976): a non-homothetic conformal change does not keep a
    # non-Riemannian Landsberg space Landsberg; a homothetic one does
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"family": "quartic_minkowski", "sigma": sigma, "samples": 4, "seed": 7}
    ))
    code, out, _ = _run(capsys, ["classify", str(path)])
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["riemannian"] == "no"
    assert verdicts["landsberg"] == verdicts["berwald"] == verdict


@pytest.mark.parametrize("scale", ["1", "1e-6"])
def test_coordinate_verdicts_do_not_depend_on_the_scale_of_L(capsys, tmp_path, scale):
    # C, d_x g and g all scale as L^2, so the riemannian and locally
    # Minkowski verdicts compare C and d_x g with max|g| alone
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({"family": "expression",
                                "L": f"{scale}*(y1^4+y2^4+y3^4+y4^4)^0.25",
                                "samples": 4, "seed": 1}))
    code, out, _ = _run(capsys, ["classify", str(path)])
    assert code == 0
    assert json.loads(out)["verdicts"] == {
        "riemannian": "no",
        "locally_minkowski_in_chart": "yes",
        "berwald": "yes",
        "landsberg": "yes",
    }
