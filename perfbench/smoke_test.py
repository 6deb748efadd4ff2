"""Smoke test of the benchmark itself.  From the root of a checkout:

    python3 perfbench/smoke_test.py

Checks, with one-second runs:
1. every workload, untraced and traced, emits exactly the metrics that
   BENCHMARK.json declares, with their units, and no operation fails;
2. two traced runs of one seed count the same work;
3. a corrupted reference or golden report is counted as a failure;
4. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Takes about four minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import corpus

ROOT = Path.cwd()
RUN = ["python3", "perfbench/run.py", "--seconds", "1"]
problems: list = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        problems.append(message)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "7", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)

    for workload in corpus.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc, res = bench(workload, trace)
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()} if res else None
            check(got == want, f"{workload} trace={trace}: emits every {section} metric "
                               f"with its unit {proc.stderr[-500:] if res is None else ''}")
            check(bool(res) and res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{workload} trace={trace}: correct, no failed operation")
            if res and trace == 1:
                first = json.loads((out / f"trace-{workload}-seed7.json").read_text())
                bench(workload, 1)
                second = json.loads((out / f"trace-{workload}-seed7.json").read_text())
                check(first["counts_per_pass"] == second["counts_per_pass"],
                      f"{workload}: two traced runs count the same work")

    with tempfile.TemporaryDirectory(dir=out) as tmp:
        tmp = Path(tmp)
        # a copy of the checkout with a corrupted reference and golden report
        broken = tmp / "broken"
        for part in ("src", "tests/goldens", "perfbench"):
            shutil.copytree(ROOT / part, broken / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", broken)
        ref_path = broken / "perfbench" / "reference.json"
        ref = json.loads(ref_path.read_text())
        ref["classify-corpus"]["randers_drift"]["max_cartan"] *= 1.01
        ref["conformal-audit"]["quartic_minkowski"]["0:sigma2"] *= 1.01
        ref_path.write_text(json.dumps(ref))
        frame = broken / corpus.GOLDENS / "frame_quartic.json"
        frame.write_text(frame.read_text().replace("2.087797629929844", "2.087797629929845"))
        for workload in corpus.WORKLOADS:
            corrupted = "reference" if workload in corpus.WARM_WORKLOADS else "golden report"
            proc, res = bench(workload, 0, cwd=broken)
            check(bool(res) and not res["correct"] and res["failed"] > 0
                  and res["metrics"]["success_rate"]["value"] < 1.0,
                  f"{workload}: a corrupted {corrupted} is counted as a failure "
                  f"{proc.stderr[-500:] if res is None else ''}")

        bare = tmp / "bare"
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, _ = bench("classify-corpus", 0, cwd=bare)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "outside a checkout: non-zero exit and no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
