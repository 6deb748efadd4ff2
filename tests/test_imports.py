"""Which modules a fresh process loads.

``import finsler4`` loads nothing, and each CLI command loads only the
modules it runs.  Only a fresh process shows this: the test session has
already imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# runs the CLI as ``python -m finsler4.cli`` does, then prints the loaded
# finsler4 modules, and numpy.random if it was loaded, on the last line of
# stdout
RUN_CLI = """
import json, runpy, sys
sys.argv = ["finsler4"] + sys.argv[1:]
try:
    runpy.run_module("finsler4.cli", run_name="__main__")
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("finsler4", "numpy.random")))))
"""
# the names the package exports, each with the module that defines it
PUBLIC = {
    "classify": ["ClassificationReport", "classify_metric", "theorem_crosscheck"],
    "conformal": ["SigmaComponents", "audit_pair", "invariance_check", "sigma_components"],
    "exprdsl": ["eval_expr", "parse_expr"],
    "frame": ["ProfileResult", "covariant_derivatives", "scalar_profile"],
    "geometry": ["CartanTensorAt", "MetricTensorAt", "SprayAt", "point_eval"],
    "jets": ["DegreeCaps", "Finsler4Error", "InvalidArgument", "JetScalar", "SpecError",
             "partial_extract"],
    "metrics": ["DomainSpec", "MetricSpec", "SamplePlan", "eval_L", "make_builtin_metric",
                "make_conformal", "sample_domain"],
    "oracle": ["fd_partials", "oracle_tensors"],
}


def _loaded(code: str, *args: str) -> set:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_finsler4_loads_no_submodule_and_no_numpy():
    code = ("import json, sys, finsler4; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('finsler4', 'numpy')))))")
    assert _loaded(code) == {"finsler4"}


def test_cold_frame_loads_exactly_its_modules():
    # the CLI module itself runs as __main__; numpy.random is not loaded
    loaded = _loaded(RUN_CLI, "frame", "tests/goldens/quartic_small.json",
                     "--x", "0,0,0,0", "--y", "1,0.5,0.25,0.125")
    assert loaded == {"finsler4", "finsler4.jets", "finsler4.exprdsl", "finsler4.metrics",
                      "finsler4.geometry", "finsler4.frame"}


@pytest.mark.parametrize("argv, absent", [
    (["classify", "tests/goldens/quartic_small.json"],
     {"finsler4.conformal", "finsler4.oracle"}),
    (["selftest"], {"finsler4.frame", "finsler4.classify", "finsler4.conformal"}),
    (["conformal", "tests/goldens/conformal_small.json"], {"finsler4.oracle"}),
])
def test_a_cold_command_leaves_out_the_modules_it_does_not_run(argv, absent):
    loaded = _loaded(RUN_CLI, *argv)
    assert "finsler4.metrics" in loaded
    assert not loaded & absent
    # sample points come from finsler4's own stream
    assert "numpy.random" not in loaded


def test_every_public_name_resolves_to_its_module_attribute():
    import finsler4

    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"finsler4.{module}")
        for name in names:
            assert getattr(finsler4, name) is getattr(mod, name), name
    assert set(dir(finsler4)) >= {n for names in PUBLIC.values() for n in names}
    # no name beyond these 31 is exported
    assert {m: list(names) for m, names in finsler4._EXPORTS.items()} == PUBLIC
    assert sum(map(len, PUBLIC.values())) == 31
    with pytest.raises(AttributeError):
        finsler4.no_such_name  # noqa: B018
