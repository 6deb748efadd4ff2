"""finsler4 benchmark: warm classify/conformal throughput and cold CLI latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify-corpus --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Details of each run
(environment, raw samples, spans) go to ``.bench_out/``.  See README.md in
this directory for the definition of every metric.

This process never imports finsler4; every measurement runs in a fresh
child interpreter, one at a time, with BLAS/OpenMP threads pinned to 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import corpus

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# time a bare ``import finsler4`` inside a fresh child, without the
# interpreter's own start-up
IMPORT_PROBE = ("from time import perf_counter; t0 = perf_counter(); import finsler4; "
                "print(perf_counter() - t0)")

# fresh set-ups per run, setup_s being their median: at least this many,
# and more until this much time is spent (cli-cold's set-up is short)
MIN_SETUPS = 5
SETUP_BUDGET_S = 3.0
# rounds of the four CLI commands per run (on cli-cold for at least
# --seconds); a slow host stops at the time budget after the minimum rounds
COLD_ROUNDS = 5
MIN_COLD_ROUNDS = 4
COLD_BUDGET_S = 22.0
BRACKET_CHUNKS = 15  # calibration kernel runs before and after each child
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot produce numbers (broken checkout or crashed child)."""


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, env: dict, cwd: Path, scratch: Path) -> dict:
    """Run one child to completion; wall time, the calibration scale around
    it, exit code, its own peak RSS (from wait4, so one child's change is not
    hidden by another's), and its output."""
    out_path = scratch / "child.out"
    err_path = scratch / "child.err"
    k_before = calibrate.kernel_s(BRACKET_CHUNKS)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "scale": calibrate.scale(k_before,
                                                     calibrate.kernel_s(BRACKET_CHUNKS)),
            "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_bytes(), "stderr": err_path.read_text(errors="replace")}


def worker_result(child: dict, what: str) -> dict:
    lines = child["stdout"].decode(errors="replace").strip().splitlines()
    if child["code"] != 0 or not lines:
        raise BenchError(f"{what} exited {child['code']}: {child['stderr'][-2000:]}")
    return json.loads(lines[-1])


def cold_command(name, argv, golden, ctx) -> dict:
    """One fresh ``python -m finsler4.cli`` invocation, checked."""
    child = run_child([sys.executable, "-m", "finsler4.cli", *argv],
                      ctx["env"], ctx["root"], ctx["scratch"])
    problems = corpus.check_cli_output(name, child["code"], child["stdout"], golden)
    points = 0 if problems else corpus.command_points(name, child["stdout"])
    if child["code"] != 0:
        problems.append(child["stderr"][-300:])
    ctx["outcome"].record(1, problems)
    return {"wall_s": child["wall_s"], "scale": child["scale"],
            "norm_s": child["wall_s"] * child["scale"], "rss_mb": child["rss_mb"],
            "points": points}


def cold_phase(ctx, min_seconds: float) -> list:
    rounds = []
    t0 = perf_counter()
    while True:
        rounds.append({name: cold_command(name, argv, golden, ctx)
                       for name, argv, golden in corpus.CLI_COMMANDS})
        elapsed = perf_counter() - t0
        if len(rounds) >= MIN_COLD_ROUNDS and elapsed >= COLD_BUDGET_S:
            return rounds
        if len(rounds) >= COLD_ROUNDS and elapsed >= min_seconds:
            return rounds


def worker_argv(mode: str, args, extra=()) -> list:
    return [sys.executable, str(WORKER), mode, "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def setups(args, ctx) -> list:
    samples = []
    deadline = perf_counter() + SETUP_BUDGET_S
    while len(samples) < MIN_SETUPS or perf_counter() < deadline:
        child = run_child(worker_argv("setup", args), ctx["env"], ctx["root"], ctx["scratch"])
        res = worker_result(child, "setup worker")
        ctx["outcome"].merge(res)
        samples.append(res["setup_s"] * child["scale"])
    return samples


def end_to_end(args, ctx) -> tuple:
    raw: dict = {}
    if args.workload in corpus.WARM_WORKLOADS:
        setup_samples = setups(args, ctx)
        child = run_child(worker_argv("warm", args, ["--seconds", str(args.seconds)]),
                          ctx["env"], ctx["root"], ctx["scratch"])
        warm = worker_result(child, "warm worker")
        ctx["outcome"].merge(warm)
        rounds = cold_phase(ctx, 0.0)
        points_per_s = warm["points_per_s"]
        peak_rss = child["rss_mb"]
        raw.update(warm=warm, warm_rss_mb=peak_rss)
    else:
        setup_samples = setups(args, ctx)
        rounds = cold_phase(ctx, args.seconds)
        runs = [r[n] for r in rounds for n, _, _ in corpus.CLI_COMMANDS]
        points_per_s = sum(x["points"] for x in runs) / sum(x["norm_s"] for x in runs)
        peak_rss = statistics.median(
            max(r[n]["rss_mb"] for n, _, _ in corpus.CLI_COMMANDS) for r in rounds)
    raw.update(setup_s=setup_samples, cold_rounds=rounds)
    outcome = ctx["outcome"]
    values = {
        "setup_s": statistics.median(setup_samples),
        "points_per_s": points_per_s,
        "success_rate": 1.0 - outcome.failed / outcome.attempted,
        "peak_rss_mb": peak_rss,
    }
    for name, _, _ in corpus.CLI_COMMANDS:
        values[f"cold_{name}_s"] = statistics.median(r[name]["norm_s"] for r in rounds)
    return values, raw


def per_layer(args, ctx) -> tuple:
    env, root, scratch = ctx["env"], ctx["root"], ctx["scratch"]
    values = worker_result(run_child([sys.executable, str(WORKER), "tables"], env, root,
                                     scratch), "tables worker")
    imports = [run_child([sys.executable, "-c", IMPORT_PROBE], env, root, scratch)
               for _ in range(IMPORT_REPEATS)]
    if any(c["code"] != 0 for c in imports):
        raise BenchError("import finsler4 failed")
    values["cli.import_s"] = statistics.median(float(c["stdout"]) for c in imports)
    trace_path = ctx["out_dir"] / f"trace-{args.workload}-seed{args.seed}.json"
    res = worker_result(run_child(worker_argv("trace", args, ["--out", str(trace_path)]),
                                  env, root, scratch), "trace worker")
    ctx["outcome"].merge(res)
    values.update(res["metrics"])
    return values, {"trace_file": str(trace_path.relative_to(root))}


def environment(root: Path, env: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "finsler4").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
        sha = got.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": np.__version__, "git_sha": sha,
            "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    goldens = root / corpus.GOLDENS
    needed = [root / "BENCHMARK.json", root / "src" / "finsler4" / "cli.py",
              HERE / "reference.json"]
    needed += [goldens / g for _, _, g in corpus.CLI_COMMANDS if g]
    needed += [goldens / s for s in corpus.GOLDEN_SPECS]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a finsler4 checkout, missing {missing}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    env = pinned_env(root)
    # one CPU for this process and every child, so that the calibration
    # kernel measures the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        ctx = {"root": root, "env": env, "out_dir": out_dir,
               "scratch": Path(scratch), "outcome": corpus.Outcome()}
        try:
            # compile the bytecode once, so no timed process pays for it
            if run_child([sys.executable, "-c", "import finsler4.cli"], env, root,
                         ctx["scratch"])["code"] != 0:
                raise BenchError("import finsler4.cli failed")
            if args.trace:
                values, raw = per_layer(args, ctx)
            else:
                values, raw = end_to_end(args, ctx)
        except BenchError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
    if set(values) != set(units):
        print(f"perfbench: measured {sorted(values)}, BENCHMARK.json declares "
              f"{sorted(units)}", file=sys.stderr)
        return 1

    outcome = ctx["outcome"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(root, env),
              "values": values, "errors": outcome.errors, "raw": raw}
    record_path = out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=repr))
    for err in outcome.errors[:10]:
        print(f"perfbench: failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
