import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])}


def test_benchmark_tracer_binds_every_traced_name():
    # perfbench/tracer.py wraps functions of src/ by name and raises when
    # one is gone, so a rename shows up here rather than in a benchmark run
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# one classify_metric and one audit_pair of one point each, as the benchmark's
# warm loops run them, under the benchmark's tracer; prints the names of the
# spans that ended without an error
_TRACED_OPS = """
import json
import corpus, tracer
from finsler4 import classify, conformal, metrics
from finsler4.metrics import SamplePlan

t = tracer.Tracer()
tracer.install(t)
_, doc, *_ = corpus.CLASSIFY_CORPUS[2]
classify.classify_metric(metrics.spec_from_json_dict(dict(doc))[0], SamplePlan(1, 5))
_, doc = corpus.CONFORMAL_PAIRS[0]
conformal.audit_pair(metrics.spec_from_json_dict(dict(doc))[0], SamplePlan(1, 5))
print(json.dumps(sorted({span[0] for span in t.spans if span[6] is None})))
"""


def test_warm_ops_enter_every_span_the_layer_metrics_read():
    # perfbench/worker.py layer_metrics takes the median of each of these
    # spans over the warm loop; a span that a stacked evaluation no longer
    # enters would leave it an empty list and stop the trace run
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_OPS],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    entered = set(json.loads(proc.stdout.splitlines()[-1]))
    read = {
        "metrics.eval_L", "metrics.sample_domain", "exprdsl.eval_expr", "geometry.point_eval",
        "geometry.metric", "geometry.cartan", "geometry.spray", "geometry.dx_g",
        "geometry.connection", "geometry.cartan_h", "frame.scalar_profile",
        "conformal.evaluate_point", "conformal.sigma_components",
        "conformal.invariance_check", "classify.classify_metric", "classify.crosscheck",
    }
    assert read <= entered, sorted(read - entered)


# one classify_metric on Berwald-Moor, whose fundamental tensor is
# indefinite, under the benchmark's tracer; prints the error of each
# frame.scalar_profile span
_TRACED_REFUSAL = """
import json
import tracer
from finsler4 import classify, metrics
from finsler4.metrics import SamplePlan

t = tracer.Tracer()
tracer.install(t)
spec = metrics.make_builtin_metric("berwald_moor")
classify.classify_metric(spec, SamplePlan(1, 5))
print(json.dumps([span[6] for span in t.spans if span[0] == "frame.scalar_profile"]))
"""


def test_a_refused_frame_is_a_profile_span_that_raised():
    # perfbench/worker.py reads frame.error_share.* from the frame.scalar_profile
    # spans that raised, so a refusal must leave its profile call as an error
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_REFUSAL],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == ["NotPositiveDefinite"]


# compares a recorded reference (JSON on stdin) with perfbench/reference.json
# entry by entry, as the benchmark's warm-up does; prints the problems
_COMPARE_REFERENCE = """
import json, sys
import worker
got = json.load(sys.stdin)
want = json.loads(worker.REFERENCE.read_text())
problems = [] if list(got) == list(want) else [f"workloads {list(got)} vs {list(want)}"]
for workload, entries in want.items():
    if list(got.get(workload, {})) != list(entries):
        problems.append(f"{workload}: entries {list(got.get(workload, {}))} vs {list(entries)}")
        continue
    for name, values in entries.items():
        problems += worker.compare_reference(f"{workload}/{name}", got[workload][name], values)
print(json.dumps(problems))
"""


def test_recorded_reference_matches_the_benchmark_reference():
    # the benchmark counts a warm-up output that leaves perfbench/reference.json
    # (corpus.REL_TOL relative, corpus.ABS_FLOOR absolute) as a failure; a
    # change to src/ that would fail that gate fails here first
    recorded = subprocess.run(
        [sys.executable, "perfbench/worker.py", "record-reference"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert recorded.returncode == 0, recorded.stderr
    proc = subprocess.run(
        [sys.executable, "-c", _COMPARE_REFERENCE], input=recorded.stdout,
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
