"""Command-line surface: load frame specs, run the analysis suites, emit
structured reports.

Exit codes: 0 all checks pass, 1 check failure, 2 input error, 3 internal
numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, coherent, duality, frame_io, frames, perturbation
from .errors import GFrameError, ParseError, SchemaError, UsageError
from .linalg import TOL_EQ, TOL_FLOOR, fro, random_units

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3


def parse_complex(text: str) -> complex:
    """Accept both 1+2i and 1+2j spellings; reject non-finite values."""
    try:
        value = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise ParseError(f"bad complex literal {text!r}") from exc
    if not np.isfinite(value):
        raise ParseError(f"complex literal {text!r} is not finite")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as UsageError, so they leave as JSON like every
    other input error."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


class ReportBuilder:
    def __init__(self, subject, args):
        self.doc = {
            "subject": subject,
            "checks": [],
            "provenance": {
                "tool": "gframe",
                "version": __version__,
                "seed": args.seed,
                "tolerance": args.tol,
                "samples": args.samples,
            },
        }

    def add_check(self, name, passed, measured, tolerance):
        self.doc["checks"].append({
            "name": name,
            "pass": bool(passed),
            "measured": float(measured),
            "tolerance": float(tolerance),
        })

    def set(self, key, value):
        self.doc[key] = value

    @property
    def all_pass(self):
        return all(c["pass"] for c in self.doc["checks"])

    def finish(self):
        self.doc["status"] = "pass" if self.all_pass else "fail"
        return self.doc


def _classification_dict(cls):
    return dataclasses.asdict(cls)


def _bounds_dict(b):
    return dataclasses.asdict(b)


def _energies(T, F):
    """Analysis energies ||T f||^2 of each column f of F."""
    return np.sum(np.abs(T @ F) ** 2, axis=0)


def _worst(excess):
    """Largest violation of a sampled inequality, 0 when none is violated."""
    return max(0.0, float(np.max(excess)))


def run_classify(args, report, frame, name):
    cls = frames.classify(frame, tol_eq=args.tol)
    bounds = frames.frame_bounds(frame, tol_eq=args.tol)
    report.set("classification", _classification_dict(cls))
    report.set("bounds", _bounds_dict(bounds))
    rng = np.random.default_rng(args.seed)
    F = random_units(rng, frame.hilbert_dim, args.samples)
    e = _energies(frames.analysis(frame), F)
    worst = _worst(np.maximum(bounds.lower - e, e - bounds.upper))
    report.add_check("frame_inequality_sampling", worst <= 1e-9, worst, 1e-9)
    return cls


def run_dual(args, report, frame, name):
    bounds = frames.frame_bounds(frame, tol_eq=args.tol)
    dual = frames.canonical_dual(frame)
    dual_bounds = frames.frame_bounds(dual, tol_eq=args.tol)
    report.set("bounds", _bounds_dict(bounds))
    report.set("dual_bounds", _bounds_dict(dual_bounds))
    ok = frames.check_dual_pair(frame, dual, tol_eq=args.tol)
    report.add_check("dual_pair", ok, 0.0 if ok else 1.0, args.tol)
    err = max(
        abs(dual_bounds.lower - 1.0 / bounds.upper) * bounds.upper,
        abs(dual_bounds.upper - 1.0 / bounds.lower) * bounds.lower,
    )
    report.add_check("reciprocal_bounds", err <= 1e-8, err, 1e-8)
    if args.emit:
        frame_io.save(args.emit, dual, {"name": f"{name}-canonical-dual"})


def run_alt_dual(args, report, frame, name, emit=True):
    rng = np.random.default_rng(args.seed)
    g0 = random_units(rng, frame.hilbert_dim, 1)[:, 0]
    alt = duality.construct_alternate_dual(frame, g0, seed=args.seed)
    can = frames.canonical_dual(frame)
    tol = max(args.tol, TOL_FLOOR)
    ok = frames.check_dual_pair(frame, alt, tol_eq=tol)
    report.add_check("alternate_dual_reconstruction", ok, 0.0 if ok else 1.0, tol)
    diff = max(fro(A - C) for A, C in zip(alt.blocks, can.blocks))
    report.add_check("differs_from_canonical", diff > 1e-6, diff, 1e-6)
    F = random_units(rng, frame.hilbert_dim, args.samples)
    ncan = _energies(frames.analysis(can), F)
    nalt = _energies(frames.analysis(alt), F)
    worst = _worst(ncan - nalt)
    report.add_check("canonical_minimality", worst <= 1e-10, worst, 1e-10)
    report.add_check(
        "gram_distinguishes_canonical",
        duality.gram_characterization(frame, can, alt)
        and not duality.gram_characterization(frame, alt, can),
        0.0, args.tol,
    )
    if emit and args.emit:
        frame_io.save(args.emit, alt, {"name": f"{name}-alternate-dual"})


def run_perturb(args, report, frame, other, name):
    rep = perturbation.optimal_M(frame, other)
    report.set("perturbation", dataclasses.asdict(rep))
    rng = np.random.default_rng(args.seed)
    F = random_units(rng, frame.hilbert_dim, args.samples)
    TF = frames.analysis(frame)
    TG = frames.analysis(other)
    den = np.minimum(_energies(TF, F), _energies(TG, F))
    worst = _worst(_energies(TF - TG, F) - rep.m_opt * den)
    report.add_check("m_opt_dominates_sampling", worst <= 1e-8, worst, 1e-8)
    slack = rep.guaranteed_lower - rep.actual_lower
    report.add_check("guaranteed_lower_bound", slack <= 1e-9, slack, 1e-9)


def run_coherent(args, report, frame, name):
    fs = coherent.build_fock(frame, tol_eq=max(args.tol, TOL_FLOOR))
    report.set("fock", {"K": fs.K, "L": fs.L})
    z, w = args.z, args.w
    checks = args.check or ["identity"]
    if "identity" in checks:
        radial = max(fs.K, fs.L)
        angular = max(2 * fs.K - 1, 2 * fs.L - 1)
        Q = coherent.quadrature_identity(fs, radial, angular)
        err = fro(Q - np.eye(frame.hilbert_dim))
        report.add_check("quadrature_identity", err <= 1e-10, err, 1e-10)
    if "eigen" in checks:
        state = coherent.coherent_state(fs, z, w)
        ops = coherent.ladder_ops(fs)
        ra = float(np.linalg.norm(ops.a @ state.vector - z * state.vector))
        rb = float(np.linalg.norm(ops.b @ state.vector - w * state.vector))
        report.add_check("eigen_relation_a", ra <= 1e-8, ra, 1e-8)
        report.add_check("eigen_relation_b", rb <= 1e-8, rb, 1e-8)
    if "uncertainty" in checks:
        pa, pb = coherent.uncertainty_product(fs, z, w)
        report.add_check("uncertainty_a", abs(pa - 0.5) <= 1e-6, abs(pa - 0.5), 1e-6)
        report.add_check("uncertainty_b", abs(pb - 0.5) <= 1e-6, abs(pb - 0.5), 1e-6)


def render_human(doc):
    lines = [f"subject: {doc['subject']}", f"status:  {doc['status']}"]
    for key in ("classification", "bounds", "dual_bounds", "perturbation", "fock"):
        if key in doc:
            lines.append(f"{key}:")
            for k, v in doc[key].items():
                lines.append(f"  {k:24s} {v}")
    if doc["checks"]:
        lines.append("checks:")
        for c in doc["checks"]:
            flag = "PASS" if c["pass"] else "FAIL"
            lines.append(
                f"  [{flag}] {c['name']:32s} measured={c['measured']:.3e}"
                f" tol={c['tolerance']:.1e}"
            )
    return "\n".join(lines) + "\n"


def emit(doc, args):
    text = render_human(doc) if args.human else json.dumps(
        doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    parser = _Parser(
        prog="gframe",
        description="Operator-frame toolkit: classification, duality, "
                    "perturbation and coherent-state suites.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, nfiles=1):
        p.add_argument("files", nargs=nfiles, help="frame-spec file(s)")
        # a string default goes through `type`, so a bad GFRAME_TOL is a
        # usage error at parse time rather than a crash while building
        p.add_argument("--tol", type=float,
                       default=os.environ.get("GFRAME_TOL", TOL_EQ),
                       help="equality tolerance (env GFRAME_TOL)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--human", action="store_true",
                       help="tabular text instead of JSON")

    p = sub.add_parser("classify", help="bounds, flags, sampling check")
    common(p)
    p = sub.add_parser("dual", help="canonical dual and its bounds")
    common(p)
    p.add_argument("--emit", default=None, help="write the dual frame here")
    p = sub.add_parser("alt-dual", help="construct a non-canonical dual")
    common(p)
    p.add_argument("--emit", default=None, help="write the alternate dual here")
    p = sub.add_parser("perturb", help="optimal perturbation constant for a pair")
    common(p, nfiles=2)
    p = sub.add_parser("coherent", help="coherent-state suite on an o.n. operator basis")
    common(p)
    p.add_argument("--z", type=parse_complex, default=0j)
    p.add_argument("--w", type=parse_complex, default=0j)
    p.add_argument("--check", action="append",
                   choices=["identity", "eigen", "uncertainty"],
                   help="repeatable; default: identity")
    p = sub.add_parser("all", help="classification plus duality suites")
    common(p)
    p.add_argument("--emit", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.samples < 1:
            # an empty sample would pass every sampling check vacuously
            raise UsageError(f"--samples must be positive, got {args.samples}")
        if args.seed < 0:
            # numpy's generators take only non-negative seeds
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        if not 0.0 < args.tol < np.inf:
            raise UsageError(f"--tol must be positive and finite, got {args.tol}")
        loaded = []
        for path in args.files:
            try:
                frame, meta = frame_io.load(path)
            except OSError as exc:
                print(json.dumps({"error": "io", "detail": str(exc)}),
                      file=sys.stderr)
                return EXIT_INPUT_ERROR
            loaded.append((frame, meta.get("name", os.path.basename(path))))
    except (ParseError, SchemaError, UsageError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_INPUT_ERROR

    frame, name = loaded[0]
    report = ReportBuilder(name, args)
    try:
        if args.command == "classify":
            run_classify(args, report, frame, name)
        elif args.command == "dual":
            run_dual(args, report, frame, name)
        elif args.command == "alt-dual":
            run_alt_dual(args, report, frame, name)
        elif args.command == "perturb":
            run_perturb(args, report, frame, loaded[1][0], name)
        elif args.command == "coherent":
            run_coherent(args, report, frame, name)
        elif args.command == "all":
            cls = run_classify(args, report, frame, name)
            run_dual(args, report, frame, name)
            if not cls.is_riesz_basis:
                # --emit names the canonical dual, written by run_dual
                run_alt_dual(args, report, frame, name, emit=False)
    except GFrameError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        print(json.dumps({"error": "LinAlgError", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERICAL

    doc = report.finish()
    emit(doc, args)
    return EXIT_OK if doc["status"] == "pass" else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
