"""Command-line entry point.

Commands:
    finsler4 classify <spec.json> [--samples N] [--seed S] [--tol T] [--output PATH]
    finsler4 conformal <spec.json> [--samples N] [--seed S] [--tol T] [--output PATH]
    finsler4 frame <spec.json> --x a,b,c,d --y e,f,g,h [--output PATH]
    finsler4 selftest [--output PATH]

Reports are deterministic JSON: fixed key order, floats rendered with 17
significant digits, no timestamps.  Exit codes: 0 evaluation succeeded
(whatever the verdicts), 2 spec/usage errors, 3 evaluation failure,
4 frame construction errors for the frame command.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import geometry, metrics
from .jets import SpecError
from .metrics import SamplePlan, SpecSchemaError


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion order kept, floats at 17 significant
    digits, non-finite values mapped to null."""
    pad = " " * indent
    child = indent + 2
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{' ' * child}{json.dumps(str(k))}: {dumps(v, child)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{' ' * child}{dumps(v, child)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (np.floating, np.integer, np.ndarray)):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"not serialisable: {type(obj)!r}")


def _open_output(path: Optional[str]) -> tuple:
    """(the report file at ``path``, whether this call created it), opened
    before the command evaluates anything, so that a path that cannot be
    written is refused at once; no path (None or empty) gives a context of
    None, the report going to stdout.  An existing file is opened in append
    mode, which leaves its bytes as they are until :func:`_emit` replaces
    them."""
    if not path:
        return contextlib.nullcontext(), False
    try:
        try:
            return open(path, "x", encoding="utf-8"), True
        except FileExistsError:
            return open(path, "a", encoding="utf-8"), False
    except OSError as err:
        raise SpecSchemaError(f"cannot write report: {err}") from None


def _emit(doc: dict, output) -> None:
    """Write the report to the file :func:`_open_output` opened, or to
    stdout for None."""
    text = dumps(doc) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        if output.seekable():
            output.truncate(0)
        output.write(text)
        output.flush()
    except OSError as err:
        raise SpecSchemaError(f"cannot write report: {err}") from None


def _load_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise SpecSchemaError(f"cannot read spec file: {err}") from None
    except json.JSONDecodeError as err:
        raise SpecSchemaError(f"malformed JSON at offset {err.pos}: {err.msg}") from None
    return metrics.spec_from_json_dict(doc)


def _sampled_run(args) -> tuple:
    """(spec, plan, tol, effective_config) of a sampled command: the spec
    file's plan with ``--samples`` and ``--seed`` in place of its own, and
    ``--tol`` checked, or the default tolerance."""
    from .classify import DEFAULT_TOL

    spec, plan = _load_spec(args.spec)
    count = args.samples if args.samples is not None else plan.count
    seed = args.seed if args.seed is not None else plan.seed
    plan = SamplePlan(count=count, seed=seed)
    tol = DEFAULT_TOL
    if args.tol is not None:
        if not 0.0 < args.tol < math.inf:
            raise SpecSchemaError(f"--tol needs a finite number > 0, got {args.tol!r}")
        tol = args.tol
    return spec, plan, tol, {"samples": plan.count, "seed": plan.seed, "tol": tol}


def _write_failure(doc: dict, point) -> bool:
    """Write the point's ``eval_error``, else its ``frame_error``, into
    ``doc``; False if it has neither."""
    if point.eval_error is not None:
        doc["eval_error"] = point.eval_error
    elif point.frame_error is not None:
        doc["frame_error"] = point.frame_error
    else:
        return False
    return True


def _point_record_doc(rec) -> dict:
    from .classify import POINT_MAXIMA

    doc = {"index": rec.index, "x": rec.x, "y": rec.y, "torsion_norm": rec.torsion_norm}
    for name in POINT_MAXIMA:
        doc[name] = getattr(rec, name)
    if not _write_failure(doc, rec) and rec.frame is not None:
        doc["frame"] = {
            "h": rec.frame["h"],
            "j": rec.frame["j"],
            "k": rec.frame["k"],
            "max_hjk": rec.frame["max_hjk"],
            "max_scalar_hderiv": rec.frame["max_scalar_hderiv"],
        }
    return doc


def cmd_classify(args) -> int:
    from . import classify as classify_mod

    spec, plan, tol, config = _sampled_run(args)
    report = classify_mod.classify_metric(spec, plan, tol)
    doc = {
        "command": "classify",
        "effective_config": config,
        "verdicts": report.verdicts,
        "deciding_residuals": report.deciding_residuals,
        "notes": report.notes,
        "points": [_point_record_doc(r) for r in report.points],
        "route_agreement": report.route_agreement,
    }
    _emit(doc, args.output)
    return 0


def _sigma_doc(sc) -> dict:
    return {
        "value": sc.sigma_value,
        "grad": sc.sigma_grad,
        "frame_components": sc.frame_grad(),
        "spray_block": sc.spray_block(),
        "extraction_residuals": sc.extraction_residuals,
    }


def _condition_doc(record: dict) -> dict:
    """label -> {"residual", "scale"} of a condition-system record."""
    rows = zip(record["residual"].tolist(), record["scale"].tolist())
    return {label: {"residual": r, "scale": s} for label, (r, s) in zip(record["labels"], rows)}


def cmd_conformal(args) -> int:
    from . import conformal as conformal_mod

    spec, plan, tol, config = _sampled_run(args)
    audit = conformal_mod.audit_pair(spec, plan, tol=tol)
    points = []
    for rep in audit.reports:
        doc = {"x": rep.x, "y": rep.y}
        if not _write_failure(doc, rep):
            doc.update(
                {
                    "case": rep.case,
                    "near_degenerate": rep.near_degenerate,
                    "sigma": _sigma_doc(rep.sigma),
                    "landsberg_residuals": _condition_doc(rep.condition_rows["landsberg"]),
                    "berwald_residuals": _condition_doc(rep.condition_rows["berwald"]),
                    "direct_barred": rep.direct_barred,
                    "invariance_residuals": rep.invariance_residuals,
                }
            )
        points.append(doc)
    doc = {
        "command": "conformal",
        "effective_config": config,
        "points": points,
        "landsberg_cooccurrence": audit.landsberg_summary,
        "berwald_cooccurrence": audit.berwald_summary,
    }
    _emit(doc, args.output)
    return 0


def _parse_point(text: str, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise SpecSchemaError(f"--{what} needs four comma-separated numbers")
    try:
        point = np.array([float(p) for p in parts])
    except ValueError:
        raise SpecSchemaError(f"--{what} needs four comma-separated numbers") from None
    if not np.all(np.isfinite(point)):
        raise SpecSchemaError(f"--{what} needs four finite numbers")
    return point


def cmd_frame(args) -> int:
    from . import frame as frame_mod

    spec, _ = _load_spec(args.spec)
    x = _parse_point(args.x, "x")
    y = _parse_point(args.y, "y")
    try:
        prof = frame_mod.scalar_profile(geometry.point_eval(spec, x, y))
    except frame_mod.FrameError as err:
        _emit(
            {"command": "frame", "error": {"type": type(err).__name__, "message": str(err)}},
            args.output,
        )
        return 4
    scalars = dict(zip(frame_mod.SCALAR_NAMES, prof.scalars.tolist()))
    doc = {
        "command": "frame",
        "x": x,
        "y": y,
        "L": prof.pe.L,
        "frame": {
            **dict(zip("lmnp", prof.e)),
            "covectors": prof.e_flat,
            "gauge_tag": prof.gauge_tag,
        },
        "orthonormality_residual": prof.residuals["orthonormality"],
        "torsion_norm": prof.pe.cartan.C_norm,
        "main_scalars": scalars,
        "unified_scalar_residual": prof.residuals["unified_scalar_sum"],
        "scalar_v_derivs": prof.v_derivs,
        "scalar_h_derivs": prof.h_derivs,
        "connection_vectors": dict(zip(frame_mod.VECTOR_NAMES, prof.vectors)),
        "reconstruction_residuals": {
            k: v for k, v in prof.residuals.items() if k.startswith("recon")
        },
    }
    _emit(doc, args.output)
    return 0


def _selftest_cases():
    quartic = metrics.make_builtin_metric("quartic_minkowski")
    bm = metrics.make_builtin_metric(
        "berwald_moor", domain=metrics.DomainSpec(y_cone="all_positive", component_margin=0.25)
    )
    randers = metrics.make_builtin_metric("randers", {"b": ["0.1*x2", 0, 0, 0]})
    riem = metrics.make_builtin_metric(
        "riemannian",
        {"g0": [["1+0.1*sin(x1)", 0, 0, 0], [0, "1+0.05*x2^2", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    )
    return [("quartic_minkowski", quartic), ("berwald_moor", bm),
            ("randers_drift", randers), ("riemannian_curved", riem)]


def cmd_selftest(args) -> int:
    from . import oracle

    checks = []
    failed = 0
    for name, spec in _selftest_cases():
        points = metrics.sample_domain(spec.domain, SamplePlan(count=4, seed=11))
        for idx, (x, y) in enumerate(points):
            pe = geometry.point_eval(spec, x, y)
            ora = oracle.oracle_tensors(spec, x, y)
            for tensor, ours, theirs in (
                ("g", pe.metric.g, ora.g),
                ("C", pe.cartan.C, ora.C),
                ("G", pe.spray.G, ora.G),
                ("N", pe.spray.N, ora.N),
            ):
                err = oracle.relative_error(ours, theirs)
                ok = err <= 1e-7
                failed += 0 if ok else 1
                checks.append(
                    {"metric": name, "point": idx, "tensor": tensor,
                     "relative_error": err, "ok": ok}
                )
    doc = {"command": "selftest", "failed": failed, "checks": checks}
    _emit(doc, args.output)
    for c in checks:
        status = "ok" if c["ok"] else "FAIL"
        print(
            f"{status} {c['metric']} point {c['point']} tensor {c['tensor']}"
            f" rel_err {c['relative_error']:.2e}",
            file=sys.stderr,
        )
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsler4",
        description="Four-dimensional Finsler geometry: tensors, Miron frames, "
        "conformal checks, Berwald/Landsberg classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_plan=True):
        if with_plan:
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--tol", type=float, default=None)
        p.add_argument("--output", default=None)

    p = sub.add_parser("classify", help="character verdicts over sampled points")
    p.add_argument("spec")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("conformal", help="conformal invariance and condition audit")
    p.add_argument("spec")
    common(p)
    p.set_defaults(fn=cmd_conformal)

    p = sub.add_parser("frame", help="frame, scalars, and vectors at one point")
    p.add_argument("spec")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    common(p, with_plan=False)
    p.set_defaults(fn=cmd_frame)

    p = sub.add_parser("selftest", help="jet pipeline vs finite-difference oracle")
    common(p, with_plan=False)
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    path, created = args.output, False
    try:
        output, created = _open_output(path)
        # the command writes its report to the open file in place of the path
        with output as args.output:
            return args.fn(args)
    except SpecError as err:
        print(f"finsler4: spec error: {err}", file=sys.stderr)
        code = 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"finsler4: evaluation failed: {type(err).__name__}: {err}", file=sys.stderr)
        code = 3
    if created:
        # a failed run leaves no file where it found none
        with contextlib.suppress(OSError):
            os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
