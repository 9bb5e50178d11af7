"""Command-line front end: load sources from JSON, solve trade-offs,
compute leakage reports, dump simplex regions, run verification suites.

Source files are JSON documents:

    {"p_y": [...], "P_x_given_y": [[...], ...],   # |X| rows of |Y| entries
     "y_values": [...],                            # optional, for mmse
     "name": "..."}                                # optional

Exit codes: 0 success, 1 failed verification, 2 validation error,
3 internal error.  All information quantities are in bits (log base 2);
every command prints that reminder as a header on stderr so emitted
files stay clean.  Numbers are serialized with 12 significant digits and
all output is deterministic given the inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import suites
from .leakage import leakage_report
from .probability import Channel, JointSource, Mechanism, Pmf, compose
from .regions import (TooManyForms, build_linear_forms, enumerate_regions,
                      merge_extreme_points, region_extreme_points)
from .threats import CostFunction, inference_gain
from .tradeoff import UtilityKind, solve_tradeoff, sweep_curve, t_xy

UTILITY_FLAGS = {
    "mi": UtilityKind.MUTUAL_INFORMATION,
    "mmse": UtilityKind.MMSE,
    "perr": UtilityKind.ERROR_PROBABILITY,
}

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


class SourceFileError(ValueError):
    """A source or mechanism file failed validation; message names the field."""


def _sig12(x):
    """Round floats to 12 significant digits for stable serialization."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _sig12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig12(v) for v in x]
    return x


def _emit(text: str, out_path: str | None) -> None:
    """Write to ``--out`` when given, else to stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out_path: str | None) -> None:
    _emit(json.dumps(_sig12(doc), indent=2) + "\n", out_path)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SourceFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SourceFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SourceFileError(f"{path}: top level must be a JSON object")
    return raw


def load_source(path: str) -> JointSource:
    """Parse and validate a source JSON file with field-specific errors."""
    raw = _read_json(path)
    for key in ("p_y", "P_x_given_y"):
        if key not in raw:
            raise SourceFileError(f"{path}: missing required field '{key}'")
    try:
        p_y = Pmf(np.asarray(raw["p_y"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise SourceFileError(f"{path}: field 'p_y': {exc}") from exc

    try:
        channel = Channel(np.asarray(raw["P_x_given_y"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise SourceFileError(f"{path}: field 'P_x_given_y': {exc}") from exc
    try:
        src = JointSource(p_y, channel)
    except ValueError as exc:
        raise SourceFileError(f"{path}: {exc}") from exc
    if raw.get("y_values") is None:
        return src
    try:
        return JointSource(p_y, channel, np.asarray(raw["y_values"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise SourceFileError(f"{path}: field 'y_values': {exc}") from exc


def load_mechanism(path: str, n_y: int) -> Mechanism:
    """Load a mechanism from its own JSON or from a solve-command output."""
    raw = _read_json(path)
    if "mechanism" in raw:
        raw = raw["mechanism"]
        if not isinstance(raw, dict):
            raise SourceFileError(f"{path}: field 'mechanism' must be a JSON object")
    if "p_u_given_y" not in raw:
        raise SourceFileError(f"{path}: missing required field 'p_u_given_y'")
    try:
        matrix = np.asarray(raw["p_u_given_y"], dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != n_y:
            raise ValueError(f"must have {n_y} columns")
        channel = Channel(matrix)
    except (TypeError, ValueError) as exc:
        raise SourceFileError(f"{path}: field 'p_u_given_y': {exc}") from exc
    labels = raw.get("u_labels")
    if labels is None:
        return Mechanism(channel)
    try:
        return Mechanism(channel, np.asarray(labels, dtype=float))
    except (TypeError, ValueError) as exc:
        raise SourceFileError(f"{path}: field 'u_labels': {exc}") from exc


def _mechanism_arg(args, n_y: int) -> Mechanism:
    """The mechanism named by --identity or --mechanism."""
    if args.identity:
        return Mechanism.identity(n_y)
    return load_mechanism(args.mechanism, n_y)


def _mechanism_doc(mech: Mechanism, p_u: Pmf, p_y_given_u: Channel) -> dict:
    labels = mech.u_labels
    return {
        "p_u": p_u.probs.tolist(),
        "p_y_given_u": p_y_given_u.matrix.tolist(),
        "p_u_given_y": mech.channel_u_given_y.matrix.tolist(),
        "u_labels": None if labels is None else labels.tolist(),
    }


def cmd_solve(args) -> int:
    if math.isnan(args.epsilon):
        raise SourceFileError("--epsilon must be a number, got nan")
    src = load_source(args.source)
    kind = UTILITY_FLAGS[args.utility]
    sol = solve_tradeoff(src, kind, args.epsilon)
    p_u, _, p_y_given_u = compose(sol.mechanism, src)
    _emit_json({
        "epsilon_requested": sol.epsilon_requested,
        "epsilon_clamped": sol.epsilon,
        "utility": sol.utility_value,
        "mechanism": _mechanism_doc(sol.mechanism, p_u, p_y_given_u),
        "achieved_t": sol.achieved_t,
    }, args.out)
    return EXIT_OK


def cmd_curve(args) -> int:
    if args.grid < 2:
        raise SourceFileError(f"--grid must be at least 2, got {args.grid}")
    src = load_source(args.source)
    kind = UTILITY_FLAGS[args.utility]
    points = sweep_curve(src, kind, args.grid)
    lines = ["epsilon,utility,achieved_t"]
    last_eps = None
    for pt in points:
        if last_eps is not None and pt.epsilon <= last_eps:
            continue  # degenerate zero-width budget range collapses the grid
        last_eps = pt.epsilon
        lines.append(",".join(f"{v:.12g}" for v in
                              (pt.epsilon, pt.utility_value, pt.achieved_t)))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_measure(args) -> int:
    src = load_source(args.source)
    p_u, p_x_given_u, _ = compose(_mechanism_arg(args, src.n_y), src)
    rep = leakage_report(p_u, p_x_given_u, src.marginal_x())
    _emit_json({**asdict(rep), "slack_mi_lower": rep.slack_mi_lower,
                "slack_ml_upper": rep.slack_ml_upper,
                "slack_ml_lower": rep.slack_ml_lower}, args.out)
    return EXIT_OK


def cmd_regions(args) -> int:
    src = load_source(args.source)
    forms = build_linear_forms(src)
    regions = enumerate_regions(forms, src.p_y)
    region_points = [region_extreme_points(region) for region in regions]
    spoints = merge_extreme_points(src, forms, region_points)
    doc = {
        "regions": [
            {
                "sign_pattern": list(region.sign_pattern),
                "A_tilde": region.a_tilde.tolist(),
                "b_tilde": region.b_tilde.tolist(),
                "extreme_points": [p.probs.tolist() for p in points],
            }
            for region, points in zip(regions, region_points)
        ],
        "spoints": [
            {"point": p.probs.tolist(), "f_value": float(v)}
            for p, v in zip(spoints.points, spoints.f_values)
        ],
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def cmd_threat(args) -> int:
    src = load_source(args.source)
    p_u, p_x_given_u, _ = compose(_mechanism_arg(args, src.n_y), src)
    cost = (CostFunction.log_loss() if args.cost == "log_loss"
            else CostFunction.brier())
    rep = inference_gain(cost, p_u, p_x_given_u, src.marginal_x())
    _emit_json({"cost": args.cost, **asdict(rep)}, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.instances is not None and args.instances < 1:
        raise SourceFileError(f"--instances must be at least 1, got {args.instances}")
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    results = suites.run_suites(names, args.instances, args.seed)
    for res in results:
        for line in res.lines():
            print(line)
    return EXIT_OK if all(r.passed for r in results) else EXIT_SUITE_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvpriv",
        description="Exact utility-privacy trade-offs under total-variation leakage")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one budget point")
    p.add_argument("source")
    p.add_argument("--utility", choices=sorted(UTILITY_FLAGS), required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("curve", help="sweep a budget grid to CSV")
    p.add_argument("source")
    p.add_argument("--utility", choices=sorted(UTILITY_FLAGS), required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("measure", help="leakage report for a mechanism")
    p.add_argument("source")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mechanism")
    group.add_argument("--identity", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("regions", help="dump sign regions and extreme points")
    p.add_argument("source")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("threat", help="inference-gain report for a mechanism")
    p.add_argument("source")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mechanism")
    group.add_argument("--identity", action="store_true")
    p.add_argument("--cost", choices=["log_loss", "brier"], default="brier")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_threat)

    p = sub.add_parser("verify", help="run randomized invariant suites")
    p.add_argument("--suite", choices=[*suites.SUITES, "all"], default="all")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--seed", type=int, default=suites.DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    print("tvpriv: all entropies and leakages in bits (log base 2)",
          file=sys.stderr)
    try:
        return args.func(args)
    except TooManyForms as exc:
        print(f"error: {exc}; the region count grows exponentially with the "
              "number of secret symbols, refusing to enumerate", file=sys.stderr)
        return EXIT_VALIDATION
    except (SourceFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
