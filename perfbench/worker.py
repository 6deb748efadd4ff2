"""In-process side of the benchmark; ``run.py`` starts it in fresh interpreters.

    worker.py setup  --workload W           time import + spec parsing + warm-up
    worker.py warm   --workload W --seed N --seconds S
                                            set-up, then the timed closed loop
    worker.py trace  --workload W --seed N --out PATH
                                            fixed passes untraced and traced,
                                            per-layer metrics, spans to PATH
    worker.py tables                        first construction of each jet table
    worker.py record-reference              print reference.json for this code

The last line of stdout is one JSON object.  Each operation (one sampled
point) is checked; a raised exception or a failed check counts as a failed
operation and never stops the loop.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import corpus  # noqa: E402
from corpus import Outcome  # noqa: E402

# rounds of the fixed traced pass; per-point counts do not depend on it
TRACE_ROUNDS = 8
# warm-up outputs recorded from the code this benchmark was written against
REFERENCE = Path(__file__).with_name("reference.json")


# -- workload entries ---------------------------------------------------------


def load_entries(workload: str) -> list:
    """(name, spec or pair, expected frame error, expected verdicts)."""
    from finsler4 import conformal, metrics

    if workload == "classify-corpus":
        return [(name, metrics.spec_from_json_dict(doc)[0], frame_error, verdicts)
                for name, doc, frame_error, verdicts in corpus.CLASSIFY_CORPUS]
    if workload == "conformal-audit":
        return [(name, conformal.pair_from_spec(metrics.spec_from_json_dict(doc)[0]),
                 None, None) for name, doc in corpus.CONFORMAL_PAIRS]
    import finsler4.cli  # noqa: F401  (the cold commands import it too)

    entries = []
    for fname in corpus.GOLDEN_SPECS:
        doc = json.loads((Path(corpus.GOLDENS) / fname).read_text())
        entries.append((fname, metrics.spec_from_json_dict(doc)[0], None, None))
    return entries


def run_op(workload: str, entry, plan):
    """One classify_metric or audit_pair call and the problems found in it."""
    from finsler4 import classify, conformal

    name, target, frame_error, verdicts = entry
    problems = []
    if workload == "classify-corpus":
        rep = classify.classify_metric(target, plan)
        for rec in rep.points:
            if rec.eval_error is not None:
                problems.append(f"{name}: eval_error {rec.eval_error}")
            if rec.frame_error != frame_error:
                problems.append(f"{name}: frame_error {rec.frame_error}, want {frame_error}")
        for key, want in verdicts.items():
            if rep.verdicts[key] != want:
                problems.append(f"{name}: {key} verdict {rep.verdicts[key]}, want {want}")
        summary = rep.route_agreement["summary"]
        if summary["landsberg_disagree"] or summary["berwald_disagree"]:
            problems.append(f"{name}: route disagreement {summary}")
        return rep, problems
    audit = conformal.audit_pair(target, plan)
    for rep in audit.reports:
        if rep.frame_error is not None:
            problems.append(f"{name}: frame_error {rep.frame_error}")
    for kind, summary in (("landsberg", audit.landsberg_summary),
                          ("berwald", audit.berwald_summary)):
        if summary["disagree"]:
            problems.append(f"{name}: {kind} co-occurrence disagreement {summary}")
    return audit, problems


def reference_values(workload: str, result) -> dict:
    """The outputs compared with reference.json."""
    if workload == "classify-corpus":
        return dict(result.deciding_residuals)
    out = {}
    for i, rep in enumerate(result.reports):
        sc = rep.sigma
        for k, v in enumerate(list(sc.frame_grad()) + list(sc.spray_block()), 1):
            out[f"{i}:sigma{k}"] = float(v)
        for key in ("max_cartan_hderiv", "max_cartan_hderiv_transvected", "hderiv_scale"):
            out[f"{i}:{key}"] = rep.direct_barred[key]
    return out


def compare_reference(name: str, got: dict, want: dict) -> list:
    if set(got) != set(want):
        return [f"{name}: reference keys {sorted(want)} but got {sorted(got)}"]
    problems = []
    for key, w in want.items():
        g = got[key]
        if w is None or g is None or math.isnan(g):
            if not (w is None and (g is None or math.isnan(g))):
                problems.append(f"{name}: {key}={g!r}, reference {w!r}")
        elif abs(g - w) > corpus.REL_TOL * abs(w) + corpus.ABS_FLOOR:
            problems.append(f"{name}: {key}={g!r}, reference {w!r}")
    return problems


def _json_number(v):
    return None if isinstance(v, float) and math.isnan(v) else v


def warm_up(workload: str, entries: list, reference: dict, outcome: Outcome) -> None:
    """Evaluate the reference sample of every entry, building every jet table
    the workload touches, and compare it with the recorded reference."""
    if workload not in corpus.WARM_WORKLOADS:
        return
    from finsler4.metrics import SamplePlan

    plan = SamplePlan(**corpus.REFERENCE_PLAN)
    for entry in entries:
        try:
            result, problems = run_op(workload, entry, plan)
            got = {k: _json_number(v) for k, v in reference_values(workload, result).items()}
            want = reference.get(workload, {}).get(entry[0])
            if want is None:
                problems.append(f"{entry[0]}: no reference recorded")
            else:
                problems += compare_reference(entry[0], got, want)
        except Exception as err:  # noqa: BLE001 - a failed operation is counted
            problems = [f"{entry[0]}: {type(err).__name__}: {err}"]
        outcome.record(plan.count, problems)


def setup(args, outcome: Outcome) -> list:
    """Import, parse the workload's specs, warm up; returns the entries."""
    import finsler4  # noqa: F401

    entries = load_entries(args.workload)
    reference = {}
    if args.workload in corpus.WARM_WORKLOADS:
        reference = json.loads(REFERENCE.read_text())
    warm_up(args.workload, entries, reference, outcome)
    return entries


# -- warm loop ----------------------------------------------------------------


def op_seed(seed: int, i: int) -> int:
    return (seed * 1_000_003 + i) % 2**63


def digest(result) -> str:
    """Byte-exact fingerprint of a result, to compare traced and untraced runs."""
    text = json.dumps(dataclasses.asdict(result), default=lambda a: a.tolist())
    return hashlib.sha256(text.encode()).hexdigest()


def run_rounds(workload, entries, seed, outcome, *, seconds=None, rounds=None,
               tracer=None, digests=None):
    """Closed loop, one caller: each round runs one point of every entry in
    turn.  Returns (per-round points/s at nominal host speed, points)."""
    from finsler4.metrics import SamplePlan

    rates = []
    i = 0
    deadline = perf_counter() + seconds if seconds is not None else None
    k_before = calibrate.kernel_s()
    while (len(rates) < rounds) if rounds is not None else (perf_counter() < deadline):
        t0 = perf_counter()
        for entry in entries:
            if tracer is not None:
                tracer.point = i
            plan = SamplePlan(1, op_seed(seed, i))
            i += 1
            try:
                result, problems = run_op(workload, entry, plan)
                if digests is not None:
                    digests.append(digest(result))
            except Exception as err:  # noqa: BLE001 - a failed operation is counted
                problems = [f"{entry[0]}: {type(err).__name__}: {err}"]
                if digests is not None:
                    digests.append(None)
            outcome.record(1, problems)
        elapsed = perf_counter() - t0
        k_after = calibrate.kernel_s()
        rates.append(len(entries) / (elapsed * calibrate.scale(k_before, k_after)))
        k_before = k_after
    return rates, i


# -- cold commands in-process (trace mode of cli-cold, and the probe) ---------


def run_cli_inprocess(outcome: Outcome, tracer=None, out_dir=None) -> int:
    """The four CLI commands through ``cli.main`` in this process, checked
    against the goldens.  Returns the number of points they evaluated."""
    from finsler4 import cli

    points = 0
    for idx, (name, argv, golden) in enumerate(corpus.CLI_COMMANDS):
        if tracer is not None:
            tracer.point = idx
        out_path = Path(out_dir) / f"inprocess-{name}.json"
        problems = []
        n = 1
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + ["--output", str(out_path)])
            report = out_path.read_bytes()
            problems += corpus.check_cli_output(name, code, report, golden)
            if not problems:
                n = corpus.command_points(name, report)
        except Exception as err:  # noqa: BLE001 - a failed operation is counted
            problems.append(f"{name}: {type(err).__name__}: {err}")
        outcome.record(1, problems)
        points += n
    return points


def cli_pass(outcome: Outcome, tracer, out_dir: str) -> tuple:
    """(points/s at nominal host speed, points) of one in-process CLI pass."""
    k_before = calibrate.kernel_s()
    t0 = perf_counter()
    points = run_cli_inprocess(outcome, tracer, out_dir)
    elapsed = perf_counter() - t0
    return points / (elapsed * calibrate.scale(k_before, calibrate.kernel_s())), points


# -- per-layer metrics ----------------------------------------------------------


def mul_probe() -> dict:
    """Microseconds per JetScalar product at fixed jets, before any wrapper."""
    from finsler4 import jets

    out = {}
    for caps, reps in (((1, 5), 200), ((1, 1), 2000), ((0, 3), 2000)):
        caps_ = jets.DegreeCaps(*caps)
        slots = [s for s in range(8) if caps[s >= 4] >= 1]
        # a jet with every coefficient nonzero
        a = jets.exp(sum(jets.variable(s, 0.1 * s, caps_) for s in slots) * 0.3)
        blocks = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(reps):
                a * a
            blocks.append((perf_counter() - t0) / reps * 1e6)
        out[f"jets.mul_us.{caps[0]}_{caps[1]}"] = statistics.median(blocks)
    return out


class LayerView:
    """Spans of one source (the workload's traced loop, or the probe)."""

    def __init__(self, tracer, phases, points: int, counts: Counter) -> None:
        self.all = tracer.spans
        self.idx = [i for i, s in enumerate(tracer.spans) if s[5] in phases]
        self.selfs = tracer.self_times()
        self.points = points
        self.counts = counts

    def named(self, name: str) -> list:
        return [i for i in self.idx if self.all[i][0] == name]

    def median_self_ms(self, name: str, ok_only: bool = False) -> float:
        vals = [self.selfs[i] for i in self.named(name)
                if not ok_only or self.all[i][6] is None]
        return statistics.median(vals) * 1e3

    def self_ms_per_point(self, name: str, points: int) -> float:
        return sum(self.selfs[i] for i in self.named(name)) * 1e3 / points

    def points_under(self, name: str) -> int:
        """PointEval constructions nested in spans of ``name``."""
        n = 0
        for i in self.named("geometry.point_eval"):
            p = self.all[i][3]
            while p >= 0 and self.all[p][0] != name:
                p = self.all[p][3]
            n += p >= 0
        return n


def layer_metrics(loop: LayerView, probe: LayerView, dumps: dict) -> tuple:
    """Per-layer metrics; a layer the loop never enters is read from the probe.
    Returns (metrics, source of each metric)."""
    out, source = {}, {}

    def view_for(span_name):
        return loop if loop.named(span_name) else probe

    def put(key, span_name, fn):
        v = view_for(span_name)
        out[key] = fn(v)
        source[key] = "loop" if v is loop else "probe"

    c, n = loop.counts, loop.points
    for caps in ("1_5", "1_1", "0_3"):
        out[f"jets.mul_per_point.{caps}"] = c[f"jets.mul.{caps}"] / n
    for fn in ("partial_extract", "derivative_jet", "restrict"):
        out[f"jets.{fn}_per_point"] = c[f"jets.{fn}"] / n
    put("metrics.eval_L_ms", "metrics.eval_L", lambda v: v.median_self_ms("metrics.eval_L"))
    put("metrics.sample_domain_ms", "metrics.sample_domain",
        lambda v: v.median_self_ms("metrics.sample_domain"))
    put("exprdsl.eval_ms_per_point", "exprdsl.eval_expr",
        lambda v: v.self_ms_per_point("exprdsl.eval_expr", v.points))
    put("geometry.point_eval_ms", "geometry.point_eval",
        lambda v: v.median_self_ms("geometry.point_eval"))
    for prop in ("metric", "cartan", "spray", "dx_g", "connection", "cartan_h"):
        put(f"geometry.{prop}_ms", f"geometry.{prop}",
            lambda v, p=prop: v.median_self_ms(f"geometry.{p}"))
    out["geometry.point_evals_per_point"] = len(loop.named("geometry.point_eval")) / n
    put("frame.scalar_profile_ms", "frame.scalar_profile",
        lambda v: v.median_self_ms("frame.scalar_profile", ok_only=True))
    profiles = loop.named("frame.scalar_profile")
    out["frame.profiles_per_point"] = len(profiles) / n
    errors = Counter(loop.all[i][6] for i in profiles)
    for err in ("NotPositiveDefinite", "VanishingTorsion"):
        out[f"frame.error_share.{err}"] = errors[err] / len(profiles)
    for key, span_name in (("sigma_components_ms", "conformal.sigma_components"),
                           ("invariance_check_self_ms", "conformal.invariance_check"),
                           ("evaluate_point_self_ms", "conformal.evaluate_point")):
        put(f"conformal.{key}", span_name, lambda v, s=span_name: v.median_self_ms(s))
    put("classify.self_ms_per_point", "classify.classify_metric",
        lambda v: v.self_ms_per_point(
            "classify.classify_metric", v.points_under("classify.classify_metric")))
    put("classify.crosscheck_ms", "classify.crosscheck",
        lambda v: v.median_self_ms("classify.crosscheck"))
    put("oracle.oracle_tensors_ms", "oracle.oracle_tensors",
        lambda v: v.median_self_ms("oracle.oracle_tensors"))
    v = view_for("oracle.oracle_tensors")
    out["oracle.L_evals_per_point"] = (
        v.counts["metrics.eval_L_value"] / len(v.named("oracle.oracle_tensors")))
    source["oracle.L_evals_per_point"] = source["oracle.oracle_tensors_ms"]
    out.update(dumps)
    return out, source


def dumps_probe(tracer, out_dir: str, outcome: Outcome) -> dict:
    """Serialise one classify report of DUMPS_SAMPLES points through the CLI."""
    from finsler4 import cli

    tracer.phase = "dumps"
    out_path = Path(out_dir) / "inprocess-dumps.json"
    argv = ["classify", str(Path(corpus.GOLDENS) / "quartic_small.json"),
            "--samples", str(corpus.DUMPS_SAMPLES), "--output", str(out_path)]
    problems = []
    code = cli.main(argv)
    text = out_path.read_text()
    if code != 0:
        problems.append(f"dumps probe: exit code {code}")
    else:
        summary = json.loads(text)["route_agreement"]["summary"]
        if summary["landsberg_disagree"] or summary["berwald_disagree"]:
            problems.append(f"dumps probe: route disagreement {summary}")
    outcome.record(1, problems)
    top = [s for s in tracer.spans if s[0] == "cli.dumps" and s[5] == "dumps"]
    return {"cli.dumps_ms": (top[-1][2] - top[-1][1]) * 1e3,
            "cli.report_bytes": float(len(text.encode()))}


def trace(args, outcome: Outcome) -> dict:
    import tracer as tracing

    entries = setup(args, outcome)
    out_dir = str(Path(args.out).parent)
    digests_plain: list = []
    if args.workload in corpus.WARM_WORKLOADS:
        plain_pps = statistics.median(run_rounds(
            args.workload, entries, args.seed, outcome, rounds=TRACE_ROUNDS,
            digests=digests_plain)[0])
    else:
        run_cli_inprocess(outcome, out_dir=out_dir)  # builds the tables
        plain_pps = cli_pass(outcome, None, out_dir)[0]
    mul_us = mul_probe()

    tracer = tracing.Tracer()
    tracing.install(tracer)
    counts, rates, passes = [], [], []
    for p in (1, 2):
        tracer.phase = f"loop{p}"
        digests: list = []
        if args.workload in corpus.WARM_WORKLOADS:
            pass_rates, n = run_rounds(args.workload, entries, args.seed, outcome,
                                       rounds=TRACE_ROUNDS, tracer=tracer, digests=digests)
            rate = statistics.median(pass_rates)
            if digests != digests_plain:
                outcome.record(1, [f"traced pass {p}: results differ from the untraced pass"])
        else:
            rate, n = cli_pass(outcome, tracer, out_dir)
        counts.append(Counter(tracer.counts))
        tracer.counts.clear()
        rates.append(rate)
        passes.append(n)
    if counts[0] != counts[1]:
        outcome.record(1, ["counts differ between the two traced passes"])

    probe_points = 0
    if args.workload in corpus.WARM_WORKLOADS:
        tracer.phase = "probe"
        probe_points = run_cli_inprocess(outcome, tracer, out_dir)
    probe_counts = Counter(tracer.counts)
    tracer.counts.clear()
    dumps = dumps_probe(tracer, out_dir, outcome)

    loop = LayerView(tracer, ("loop1", "loop2"), sum(passes), counts[0] + counts[1])
    if args.workload in corpus.WARM_WORKLOADS:
        probe = LayerView(tracer, ("probe",), probe_points, probe_counts)
    else:
        probe = loop
    layers, source = layer_metrics(loop, probe, dumps)
    layers.update(mul_us)
    layers["trace.overhead_points_per_s"] = rates[0] - plain_pps

    Path(args.out).write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "untraced_points_per_s": plain_pps,
        "traced_points_per_s": rates,
        "counts_per_pass": [dict(c) for c in counts],
        "probe_counts": dict(probe_counts),
        "metric_source": source,
        "span_fields": ["name", "start", "end", "parent", "point", "phase", "error"],
        "spans": tracer.spans,
    }))
    return layers


# -- modes ----------------------------------------------------------------------


def mode_tables() -> dict:
    from finsler4 import jets

    out = {}
    for x, y in corpus.TABLE_CAPS:
        t0 = perf_counter()
        jets.const(0.0, jets.DegreeCaps(x, y))
        out[f"jets.table_build_ms.{x}_{y}"] = (perf_counter() - t0) * 1e3
    return out


def record_reference() -> dict:
    from finsler4.metrics import SamplePlan

    plan = SamplePlan(**corpus.REFERENCE_PLAN)
    doc = {}
    for workload in corpus.WARM_WORKLOADS:
        doc[workload] = {}
        for entry in load_entries(workload):
            result, problems = run_op(workload, entry, plan)
            if problems:
                raise SystemExit(f"cannot record a failing reference: {problems}")
            doc[workload][entry[0]] = {
                k: _json_number(v) for k, v in reference_values(workload, result).items()}
    return doc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "warm", "trace", "tables", "record-reference"))
    ap.add_argument("--workload", choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    if args.mode == "tables":
        result = mode_tables()
    elif args.mode == "record-reference":
        print(json.dumps(record_reference(), indent=2))
        return 0
    else:
        outcome = Outcome()
        result = {}
        if args.mode == "trace":
            result["metrics"] = trace(args, outcome)
        else:
            entries = setup(args, outcome)
            result["setup_s"] = perf_counter() - _T0
            if args.mode == "warm":
                rates, points = run_rounds(args.workload, entries, args.seed, outcome,
                                              seconds=args.seconds)
                result["points_per_s"] = statistics.median(rates)
                result["round_rates"] = rates
                result["points"] = points
        result.update(attempted=outcome.attempted, failed=outcome.failed,
                      errors=outcome.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
