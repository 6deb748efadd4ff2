"""Workload inputs, their expected outcomes, and the tally of failures.

Nothing here imports finsler4: the orchestrator reads these tables in a
process that never loads the engine, and the worker parses the spec
documents with the engine's own JSON spec parser.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("classify-corpus", "conformal-audit", "cli-cold")
WARM_WORKLOADS = ("classify-corpus", "conformal-audit")

CURVED_G0 = [
    ["1+0.1*sin(x1)", 0, 0, 0],
    [0, "1+0.05*x2^2", 0, 0],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
]
RANDERS_B = ["0.1*x2", 0, 0, 0]
EXPRESSION_L = (
    "(y1^4+y2^4+y3^4+y4^4+0.5*(y1^2+y2^2+y3^2+y4^2)^2)^0.25*exp(0.1*x1)"
)

# name, spec document, expected frame_error, verdicts fixed by theorem.
# Berwald-Moor's fundamental tensor is indefinite, so its frame is refused;
# a Riemannian metric has vanishing torsion, so its frame aborts.  Both are
# correct outcomes, not failures.
CLASSIFY_CORPUS = (
    ("quartic_minkowski", {"family": "quartic_minkowski"}, None,
     {"locally_minkowski_in_chart": "yes", "berwald": "yes", "landsberg": "yes"}),
    ("berwald_moor", {"family": "berwald_moor"}, "NotPositiveDefinite",
     {"locally_minkowski_in_chart": "yes", "berwald": "yes", "landsberg": "yes"}),
    ("randers_drift", {"family": "randers", "params": {"b": RANDERS_B}}, None,
     {"berwald": "no", "landsberg": "no"}),
    ("riemannian_curved", {"family": "riemannian", "params": {"g0": CURVED_G0}},
     "VanishingTorsion", {"riemannian": "yes", "berwald": "yes"}),
    ("expression_conformal_quartic", {"family": "expression", "L": EXPRESSION_L},
     None, {}),
)

# name, spec document carrying a conformal factor sigma
CONFORMAL_PAIRS = (
    ("randers_drift", {"family": "randers", "params": {"b": RANDERS_B},
                       "sigma": "0.1*x1"}),
    ("quartic_minkowski", {"family": "quartic_minkowski",
                           "sigma": "0.2*x1+0.1*sin(x2)"}),
)

# The seed-independent warm-up sample whose outputs are compared with
# reference.json; the timed phase draws its points from --seed instead.
REFERENCE_PLAN = {"count": 1, "seed": 0}

# Residuals are compared as |got - want| <= REL_TOL * |want| + ABS_FLOOR;
# the floor absorbs round-off-level residuals of quantities that vanish.
REL_TOL = 1e-6
ABS_FLOOR = 1e-12

# the golden specs and reports, relative to the checkout root
GOLDENS = "tests/goldens"

# name, finsler4 CLI arguments, and the golden report its output must equal
# byte for byte (None: selftest, which must report failed == 0 instead)
CLI_COMMANDS = (
    ("frame", ["frame", f"{GOLDENS}/quartic_small.json",
               "--x", "0,0,0,0", "--y", "1,2,1,1"], "frame_quartic.json"),
    ("classify", ["classify", f"{GOLDENS}/quartic_small.json"], "classify_quartic.json"),
    ("conformal", ["conformal", f"{GOLDENS}/conformal_small.json"],
     "conformal_quartic.json"),
    ("selftest", ["selftest"], None),
)
GOLDEN_SPECS = ("quartic_small.json", "conformal_small.json")

# jet-table caps a frame/classify/conformal run builds, as (x_max, y_max)
TABLE_CAPS = ((1, 5), (1, 3), (0, 5), (0, 4), (0, 3), (1, 2), (1, 1), (1, 0))

# the report whose serialisation cli.dumps_ms and cli.report_bytes measure
DUMPS_SAMPLES = 64


class Outcome:
    """Attempted and failed operations plus the first few failure messages."""

    MAX_ERRORS = 5

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, n_points: int, problems: list) -> None:
        self.attempted += n_points
        if problems:
            self.failed += n_points
            if len(self.errors) < self.MAX_ERRORS:
                self.errors.append("; ".join(problems))

    def merge(self, result: dict) -> None:
        """Add the counts a worker reported."""
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"][: self.MAX_ERRORS - len(self.errors)]


def check_cli_output(name: str, code: int, report: bytes, golden) -> list:
    """Problems with one CLI command's exit code and report."""
    if code != 0:
        return [f"{name}: exit code {code}"]
    if golden is not None:
        if report != (Path(GOLDENS) / golden).read_bytes():
            return [f"{name}: report differs from {golden}"]
        return []
    try:
        failed = json.loads(report).get("failed")
    except ValueError:
        return [f"{name}: report is not JSON"]
    return [] if failed == 0 else [f"{name}: selftest reports failed={failed}"]


def command_points(name: str, report: bytes) -> int:
    """Sample points a correct report of this command evaluated."""
    if name == "frame":
        return 1
    doc = json.loads(report)
    if name == "selftest":
        return len({(c["metric"], c["point"]) for c in doc["checks"]})
    return len(doc["points"])
