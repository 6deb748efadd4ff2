"""Regenerate the CLI golden files.

Run from the repository root after an intentional output change; the
tool imports ``finsler4`` from this checkout's ``src``, so it needs no
install and no ``PYTHONPATH``:

    python3 tests/regen_goldens.py            # rewrite tests/goldens/
    python3 tests/regen_goldens.py --drift    # rewrite, then compare with HEAD

``--drift`` compares each regenerated file with its committed version
(``git show HEAD:tests/goldens/<file>``).  Per file it prints how many
numbers changed, the largest ``|new - old| / (1 + |old|)`` and the JSON
path of the number that moved by it.  It exits 1
on any other change: a key, a string, a bool, an integer, a null, a list
length or a file that HEAD does not have.  A float that is exactly integral
prints without a decimal point, so an integer beside a float counts as a
number, ``-0`` reads as the float -0.0, and a zero whose sign moved counts
as a changed number.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

# the checkout's own source, ahead of any installed copy of the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finsler4 import cli  # noqa: E402

RANDERS_B = {"b": ["0.1*x2", 0, 0, 0]}
# a Randers-type metric whose g is indefinite at some sampled points
INDEFINITE_L = "sqrt(y1^2+y2^2+y3^2+x1*y4^2)+0.1*x2*y1"

# spec file -> spec document
SPECS = {
    "quartic_small.json": {"family": "quartic_minkowski", "samples": 2, "seed": 12},
    "conformal_small.json": {
        "family": "quartic_minkowski", "sigma": "0.1*x1", "samples": 2, "seed": 12,
    },
    "randers_small.json": {
        "family": "randers", "params": RANDERS_B, "samples": 2, "seed": 12,
    },
    "randers_conformal_small.json": {
        "family": "randers", "params": RANDERS_B, "sigma": "0.1*x1",
        "samples": 2, "seed": 12,
    },
    "indefinite_small.json": {
        "family": "expression", "L": INDEFINITE_L, "samples": 6, "seed": 1,
    },
    "indefinite_conformal_small.json": {
        "family": "expression", "L": INDEFINITE_L, "sigma": "0.1*x2",
        "samples": 6, "seed": 1,
    },
    "riemannian_curved_small.json": {
        "family": "riemannian",
        "params": {"g0": [["1+0.1*sin(x1)", 0, 0, 0], [0, "1+0.05*x2^2", 0, 0],
                          [0, 0, 1, 0], [0, 0, 0, 1]]},
        "samples": 2, "seed": 12,
    },
    # sigma with every frame component in the support (case m_n_p), and a
    # constant sigma (case homothetic)
    "quartic_mnp_conformal_small.json": {
        "family": "quartic_minkowski", "sigma": "0.2*x1+0.1*sin(x2)", "samples": 2, "seed": 12,
    },
    "randers_homothetic_small.json": {
        "family": "randers", "params": RANDERS_B, "sigma": "0.3", "samples": 2, "seed": 12,
    },
}

# CLI arguments ({d} is the goldens directory) -> golden report; tests/test_cli.py
# checks each against a fresh run
REPORTS = (
    (["classify", "{d}/quartic_small.json"], "classify_quartic.json"),
    (["frame", "{d}/quartic_small.json", "--x", "0,0,0,0", "--y", "1,2,1,1"],
     "frame_quartic.json"),
    (["conformal", "{d}/conformal_small.json"], "conformal_quartic.json"),
    # Randers b=0.1*x2: x-derivatives of g, the spray and C_h do not vanish,
    # so these pin the axis order of every derivative tensor
    (["classify", "{d}/randers_small.json"], "classify_randers.json"),
    (["frame", "{d}/randers_small.json", "--x", "0.1,0.2,0.3,0.4", "--y", "1,2,1,1"],
     "frame_randers.json"),
    (["conformal", "{d}/randers_conformal_small.json"], "conformal_randers.json"),
    # refused frames: an eval_error, two NotPositiveDefinite and three
    # profiles in one sample, and a curved Riemannian metric whose torsion
    # vanishes at every point, so each point is a frame_error record
    (["classify", "{d}/indefinite_small.json"], "classify_indefinite.json"),
    (["conformal", "{d}/indefinite_conformal_small.json"], "conformal_indefinite.json"),
    (["classify", "{d}/riemannian_curved_small.json"], "classify_riemannian_curved.json"),
    # the jet pipeline against the finite-difference oracle
    (["selftest"], "selftest.json"),
    # the m_n_p and homothetic cases of the condition systems
    (["conformal", "{d}/quartic_mnp_conformal_small.json"], "conformal_quartic_mnp.json"),
    (["conformal", "{d}/randers_homothetic_small.json"], "conformal_homothetic.json"),
)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load(text: str):
    """A JSON document as :func:`drift` reads it: ``-0`` (a float -0.0 that
    prints without a decimal point) is the float -0.0, not the int 0."""
    return json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))


def drift(old, new, path: str = "$"):
    """(changed numbers, largest |new - old| / (1 + |old|), the JSON path of
    the first number that moved by it or None, other changes) between two
    parsed JSON documents."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            return 0, 0.0, None, [f"{path}: keys {list(old)} -> {list(new)}"]
        parts = [drift(old[k], new[k], f"{path}.{k}") for k in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return 0, 0.0, None, [f"{path}: length {len(old)} -> {len(new)}"]
        parts = [drift(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    elif (
        _is_number(old) and _is_number(new)
        and (isinstance(old, float) or isinstance(new, float))
    ):
        # a zero whose sign moved is a changed number
        if old == new and math.copysign(1.0, old) == math.copysign(1.0, new):
            return 0, 0.0, None, []
        return 1, abs(new - old) / (1.0 + abs(old)), path, []
    elif type(old) is type(new) and old == new:
        return 0, 0.0, None, []
    else:
        return 0, 0.0, None, [f"{path}: {old!r} -> {new!r}"]
    worst = max(parts, key=lambda p: p[1], default=(0, 0.0, None, []))
    return (
        sum(p[0] for p in parts),
        worst[1],
        worst[2],
        [msg for p in parts for msg in p[3]],
    )


def report_drift(goldens: Path, names) -> int:
    """Print the drift of each regenerated golden against HEAD; 1 if any
    change is not a number moving."""
    root = goldens.parent.parent
    status = 0
    for name in names:
        shown = subprocess.run(
            ["git", "show", f"HEAD:{goldens.relative_to(root).as_posix()}/{name}"],
            cwd=root, capture_output=True, text=True,
        )
        if shown.returncode != 0:
            print(f"{name}: not in HEAD")
            status = 1
            continue
        changed, worst, where, other = drift(
            load(shown.stdout), load((goldens / name).read_text())
        )
        at = f" at {where}" if where else ""
        print(f"{name}: {changed} numbers changed, max |new-old|/(1+|old|) = {worst:.3g}{at}")
        for msg in other:
            print(f"  non-numeric change {msg}")
        status |= bool(other)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--drift"]):
        raise SystemExit("usage: python3 tests/regen_goldens.py [--drift]")
    goldens = Path(__file__).resolve().parent / "goldens"
    goldens.mkdir(exist_ok=True)
    for name, doc in SPECS.items():
        (goldens / name).write_text(json.dumps(doc, indent=2) + "\n")
    for args, report in REPORTS:
        args = [a.format(d=goldens) for a in args]
        path = goldens / report
        code = cli.main(args + ["--output", str(path)])
        if code != 0:
            raise SystemExit(f"golden command {args} exited {code}")
        print(f"wrote {path}")
    if argv:
        return report_drift(goldens, [*SPECS, *(report for _, report in REPORTS)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
