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

from . import __version__, frame_io, frames
from .errors import GFrameError, ParseError, SchemaError, ShapeMismatch, UsageError
from .linalg import TOL_EQ, TOL_FLOOR, block_norms, fro, random_units, sampled_max, within

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


# A measured check passes at most at its threshold (beyond it, for
# differs_from_canonical) and reports the threshold as its tolerance; the
# three decision checks record their verdicts through _record instead.
_THRESHOLDS = {
    "frame_inequality_sampling": 1e-9,
    "reciprocal_bounds": 1e-8,
    "differs_from_canonical": 1e-6,
    "canonical_minimality": 1e-10,
    "m_opt_dominates_sampling": 1e-8,
    "guaranteed_lower_bound": 1e-9,
    "quadrature_identity": 1e-10,
    "eigen_relation_a": 1e-8,
    "eigen_relation_b": 1e-8,
    "uncertainty_a": 1e-6,
    "uncertainty_b": 1e-6,
}


def _record(doc, name, passed, measured, tolerance):
    doc["checks"].append({"name": name, "pass": bool(passed),
                          "measured": float(measured), "tolerance": float(tolerance)})


def _check(doc, name, measured):
    """Record check `name` of the table against its threshold."""
    limit = _THRESHOLDS[name]
    passed = within(measured, limit)
    if name == "differs_from_canonical":  # NaN is neither within nor beyond
        passed = not (passed or np.isnan(measured))
    _record(doc, name, passed, measured, limit)


def _energies(T, F):
    """Analysis energies ||T f||^2 of each column f of F."""
    return np.sum(np.abs(T @ F) ** 2, axis=0)


def run_classify(args, doc, frame):
    cls = frames.classify(frame, tol_eq=args.tol)
    bounds = frames.frame_bounds(frame, tol_eq=args.tol)
    doc["classification"] = dataclasses.asdict(cls)
    doc["bounds"] = dataclasses.asdict(bounds)
    T = frames.analysis(frame)

    def excess(F):
        e = _energies(T, F)
        return np.maximum(bounds.lower - e, e - bounds.upper)

    _check(doc, "frame_inequality_sampling", sampled_max(
        np.random.default_rng(args.seed), frame.hilbert_dim, args.samples, excess)[0])


def run_dual(args, doc, frame):
    bounds = frames.frame_bounds(frame, tol_eq=args.tol)
    dual = frames.canonical_dual(frame)
    doc["bounds"] = dataclasses.asdict(bounds)
    doc["dual_bounds"] = dataclasses.asdict(frames.frame_bounds(dual, tol_eq=args.tol))
    ok = frames.check_dual_pair(frame, dual, tol_eq=args.tol)
    _record(doc, "dual_pair", ok, 0.0 if ok else 1.0, args.tol)
    # the dual's cached factor is the frame's, so its bounds are 1/B and
    # 1/A by construction: measure the dual's own matrix instead
    s = np.linalg.svd(frames.analysis(dual), compute_uv=False)
    _check(doc, "reciprocal_bounds", max(
        abs(s[-1] ** 2 - 1.0 / bounds.upper) * bounds.upper,
        abs(s[0] ** 2 - 1.0 / bounds.lower) * bounds.lower,
    ))
    return dual


def run_alt_dual(args, doc, frame):
    from . import duality

    rng = np.random.default_rng(args.seed)
    g0 = random_units(rng, frame.hilbert_dim, 1)[:, 0]
    alt = duality.construct_alternate_dual(frame, g0, seed=args.seed)
    can = frames.canonical_dual(frame)
    tol = max(args.tol, TOL_FLOOR)
    ok = frames.check_dual_pair(frame, alt, tol_eq=tol)
    _record(doc, "alternate_dual_reconstruction", ok, 0.0 if ok else 1.0, tol)
    Tcan, Talt = frames.analysis(can), frames.analysis(alt)
    _check(doc, "differs_from_canonical",
           block_norms(Talt - Tcan, frame.block_dims).max())
    _check(doc, "canonical_minimality", sampled_max(
        rng, frame.hilbert_dim, args.samples,
        lambda F: _energies(Tcan, F) - _energies(Talt, F))[0])
    _record(doc, "gram_distinguishes_canonical",
            duality.gram_characterization(frame, can, alt)
            and not duality.gram_characterization(frame, alt, can),
            0.0, args.tol)
    return alt


def run_all(args, doc, frame):
    run_classify(args, doc, frame)
    # a non-frame has no dual: its report is the classification
    if not doc["classification"]["is_frame"]:
        return None
    dual = run_dual(args, doc, frame)
    if not doc["classification"]["is_riesz_basis"]:
        run_alt_dual(args, doc, frame)
    return dual


def run_perturb(args, doc, frame, other):
    from . import perturbation

    rep = perturbation.optimal_M(frame, other)
    doc["perturbation"] = dataclasses.asdict(rep)
    TF, TG = frames.analysis(frame), frames.analysis(other)
    D = TF - TG

    def excess(F):
        den = np.minimum(_energies(TF, F), _energies(TG, F))
        return _energies(D, F) - rep.m_opt * den

    _check(doc, "m_opt_dominates_sampling", sampled_max(
        np.random.default_rng(args.seed), frame.hilbert_dim, args.samples, excess)[0])
    _check(doc, "guaranteed_lower_bound", rep.guaranteed_lower - rep.actual_lower)


def run_coherent(args, doc, frame):
    from . import coherent

    fs = coherent.build_fock(frame, tol_eq=max(args.tol, TOL_FLOOR))
    doc["fock"] = {"K": fs.K, "L": fs.L}
    z, w = args.z, args.w
    checks = args.check or ["identity"]
    if "identity" in checks:
        Q = coherent.quadrature_identity(fs, max(fs.K, fs.L),
                                         max(2 * fs.K - 1, 2 * fs.L - 1))
        _check(doc, "quadrature_identity", fro(Q - np.eye(frame.hilbert_dim)))
    if "eigen" in checks:
        v = coherent.coherent_state(fs, z, w).vector
        ops = coherent.ladder_ops(fs)
        _check(doc, "eigen_relation_a", np.linalg.norm(ops.a @ v - z * v))
        _check(doc, "eigen_relation_b", np.linalg.norm(ops.b @ v - w * v))
    if "uncertainty" in checks:
        pa, pb = coherent.uncertainty_product(fs, z, w)
        _check(doc, "uncertainty_a", abs(pa - 0.5))
        _check(doc, "uncertainty_b", abs(pb - 0.5))


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


def emit(doc, args, frame, name):
    """Save `frame` to --emit, if both are given, and write the report to
    --out or stdout.  The report goes to a temporary file beside --out that
    replaces --out last, so a run that fails here leaves no spec and --out
    as it was, and a spec that cannot be saved leaves stdout empty."""
    text = render_human(doc) if args.human else json.dumps(
        doc, indent=2, sort_keys=True) + "\n"
    spec = frame is not None and getattr(args, "emit", None)
    partial = f"{args.out}.{os.getpid()}.tmp" if args.out else None
    try:
        if partial:
            with open(partial, "w", encoding="utf-8") as fh:
                fh.write(text)
        if spec:
            kind = "alternate" if args.command == "alt-dual" else "canonical"
            frame_io.save(spec, frame, {"name": f"{name}-{kind}-dual"})
        try:
            if partial:
                os.replace(partial, args.out)
            else:
                sys.stdout.write(text)
        except OSError as exc:
            if spec:
                os.remove(spec)
            # name --out, not the temporary file
            raise OSError(exc.errno, exc.strerror, args.out) from exc
    finally:
        if partial and os.path.exists(partial):
            os.remove(partial)


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


def _fail(code, error, detail):
    print(json.dumps({"error": error, "detail": detail}), file=sys.stderr)
    return code


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
        loaded = [frame_io.load(path) for path in args.files]
        name = loaded[0][1].get("name", os.path.basename(args.files[0]))
        doc = {"subject": name, "checks": [], "provenance": {
            "tool": "gframe", "version": __version__, "seed": args.seed,
            "tolerance": args.tol, "samples": args.samples}}
        suite = {"classify": run_classify, "dual": run_dual, "alt-dual": run_alt_dual,
                 "perturb": run_perturb, "coherent": run_coherent, "all": run_all}
        # a suite returns the frame that --emit writes: the alternate dual
        # for alt-dual, else the canonical dual (none for a non-frame).  It
        # is written only once the suite has run, so exit 3 writes no file
        out = suite[args.command](args, doc, *(F for F, _ in loaded))
        doc["status"] = "pass" if all(c["pass"] for c in doc["checks"]) else "fail"
        emit(doc, args, out, name)
    # the input-error classes subclass GFrameError, so they come first; a
    # ShapeMismatch here can only come from perturb's two incompatible specs
    except OSError as exc:
        return _fail(EXIT_INPUT_ERROR, "io", str(exc))
    except (ParseError, SchemaError, ShapeMismatch, UsageError) as exc:
        return _fail(EXIT_INPUT_ERROR, type(exc).__name__, str(exc))
    except (GFrameError, np.linalg.LinAlgError) as exc:
        return _fail(EXIT_NUMERICAL, type(exc).__name__, str(exc))
    return EXIT_OK if doc["status"] == "pass" else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
