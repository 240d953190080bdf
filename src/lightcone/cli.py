"""Command-line front end.

Subcommands: ``generate`` (seeded synthetic sample files), ``verify``
(hypothesis checks + affine recovery on a sample file), ``boost`` (print a
boost matrix), ``radar`` (light-clock timeline as CSV), and ``classify``
(causal class of an event pair).

Exit codes: 0 success, 1 I/O or file-format errors, 2 domain errors
(degenerate parameters, hypothesis violations, failed recovery).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import __version__
from .boost import BoostParams, boost_x
from .generate import KINDS, GenerateConfig, make_samples
from .minkowski import DEFAULT_TOL, Metric, classify, interval
from .radar import RadarScenario, light_clock
from .recover import FIT_TOL, GEOMETRY_TOL, recover_lorentz
from .sampleio import (
    SampleFormatError,
    load_samples,
    save_report,
    save_samples,
    save_truth,
)


def _fmt(x: float) -> str:
    return f"{x + 0.0:.17g}"  # + 0.0 folds -0.0 into 0.0


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"cannot parse vector {text!r}: {exc}") from exc


def _cmd_generate(args) -> int:
    translation = tuple(_parse_vector(args.a)) if args.a else None
    cfg = GenerateConfig(
        kind=args.kind,
        n=args.n,
        c=args.c,
        v=args.v,
        alpha=args.alpha,
        translation=translation,
        num_samples=args.num_samples,
        seed=args.seed,
        noise=args.noise,
    )
    samples, truth = make_samples(cfg)
    save_samples(args.out, samples, seed=args.seed, kind=args.kind)
    save_truth(args.out + ".truth.json", truth)
    print(f"wrote {len(samples)} pairs to {args.out} (ground truth in {args.out}.truth.json)")
    return 0


def _cmd_verify(args) -> int:
    samples, meta = load_samples(args.input)
    report = recover_lorentz(samples, tol=args.tol, geometry_tol=args.cone_tol)
    if args.out:
        save_report(args.out, report, samples, input_path=args.input)

    print(f"samples: {report.num_samples} (kind={meta.get('kind')}, "
          f"n={samples.metric.n}, c={_fmt(samples.metric.c)})")
    print(f"cone-preservation violations: {report.cone.violations} "
          f"(indeterminate skipped: {report.cone.indeterminate}, "
          f"bijectivity: {report.cone.bijectivity_violations})")
    if report.cone.worst_pair:
        print(f"  worst pair: {report.cone.worst_pair} "
              f"(off by {report.cone.worst_excess:.3g} band widths)")
    print(f"collinearity violations: {report.collinearity.violations} / {report.collinearity.checked}")
    print(f"parallelism violations: {report.parallelism.violations} / {report.parallelism.checked}")
    if report.field_map is not None:
        fm = report.field_map
        if fm.line_preserved:
            print(f"field map: additivity {fm.additivity_error:.3g}, "
                  f"multiplicativity {fm.multiplicativity_error:.3g}, "
                  f"identity {fm.identity_error:.3g}, monotone {fm.monotone}")
        else:
            print("field map: image of the axis line is not a line")
    print(f"max residual: {report.max_residual:.6g} (threshold {report.fit_threshold:.6g})")
    if report.single_cone_counterexamples:
        print(f"single-cone audit: vertex {report.single_cone_vertex} clean but "
              f"{report.single_cone_counterexamples} other pairs violate (map is not linear)")
    if report.failure:
        print(f"failure: {report.failure}")
    if report.recovered is not None:
        r = report.recovered
        print(f"recovered: alpha = {_fmt(r.alpha)}")
        for k, row in enumerate(r.L):
            prefix = "           L = " if k == 0 else "               "
            print(prefix + " ".join(_fmt(v) for v in row))
        print(f"           a = {' '.join(_fmt(v) for v in r.a)}")
        return 0
    print("recovered: none")
    return 2


def _cmd_boost(args) -> int:
    m = boost_x(BoostParams(args.v, args.c))
    for row in m.L:
        print(" ".join(_fmt(v) for v in row))
    return 0


def _cmd_radar(args) -> int:
    tl = light_clock(RadarScenario(v=args.v, c=args.c, delta_xbar=args.delta_xbar, t0=args.t0))
    rows = zip(("emit", "reflect", "return"), (tl.t0, tl.t1, tl.t2), tl.x,
               (tl.tprime0, tl.tprime1, tl.tprime2), tl.xprime)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["event", "t_K", "x_K", "t_Kprime", "x_Kprime"])
        for name, t, x, tp, xp in rows:
            writer.writerow([name, _fmt(t), _fmt(x), _fmt(tp), _fmt(xp)])
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_classify(args) -> int:
    e1 = _parse_vector(args.event1)
    e2 = _parse_vector(args.event2)
    m = Metric(len(e1), args.c)
    cls = classify(e1, e2, m, args.tol)
    print(f"{cls.value} (interval = {_fmt(interval(e1, e2, m))})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightcone",
        description="Cone-preserving maps over an arbitrary invariant speed",
    )
    parser.add_argument("--version", action="version", version=f"lightcone {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded synthetic sample file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=4, help="spacetime dimension")
    p.add_argument("--c", type=float, default=1.0, help="invariant speed")
    p.add_argument("--v", type=float, default=0.6, help="boost velocity")
    p.add_argument("--alpha", type=float, default=1.0, help="conformal scale")
    p.add_argument("--a", default=None, help="translation, comma-separated (random if omitted)")
    p.add_argument("--num-samples", type=int, default=50, help="base cloud size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0, help="noise level for noisy-lorentz")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check hypotheses and recover the map from a sample file")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=FIT_TOL, help="fit acceptance, relative to image diameter")
    p.add_argument("--cone-tol", type=float, default=GEOMETRY_TOL, help="geometric tolerance for the checks")
    p.add_argument("--out", default=None, help="write the report as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("boost", help="print the 4x4 boost matrix")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.set_defaults(func=_cmd_boost)

    p = sub.add_parser("radar", help="light-clock timeline as CSV")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--delta-xbar", type=float, default=1.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_radar)

    p = sub.add_parser("classify", help="causal class of an event pair")
    p.add_argument("event1", help="comma-separated coordinates, time last")
    p.add_argument("event2")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_classify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SampleFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
