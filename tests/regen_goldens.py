"""Regenerate the CLI golden files.

Run from the repository root after an intentional output-schema change:

    python3 tests/regen_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

from finsler4 import cli

RANDERS_B = {"b": ["0.1*x2", 0, 0, 0]}

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
)


def main() -> None:
    goldens = Path(__file__).resolve().parent / "goldens"
    goldens.mkdir(exist_ok=True)
    for name, doc in SPECS.items():
        (goldens / name).write_text(json.dumps(doc, indent=2) + "\n")
    for argv, report in REPORTS:
        args = [a.format(d=goldens) for a in argv]
        path = goldens / report
        code = cli.main(args + ["--output", str(path)])
        if code != 0:
            raise SystemExit(f"golden command {args} exited {code}")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
