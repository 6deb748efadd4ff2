import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_binds_every_traced_name():
    # perfbench/tracer.py wraps functions of src/ by name and raises when
    # one is gone, so a rename shows up here rather than in a benchmark run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])}
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
