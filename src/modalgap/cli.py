"""Command-line harness binding instances, fits, estimates, and experiments
into reproducible named runs.

Every subcommand returns its result files, as a map from file name to text,
and its threshold verdict; ``main`` alone writes them into ``--out`` next to
the resolved configuration.  A run that ends in an error writes nothing.
Outputs carry no timestamps, so identical configs re-produce identical
bytes.  Exit code 1 means an error, usage errors included; exit code 2
means only that the run finished but a declared threshold failed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, complexity, erm, shatter
from .core import (CLIPPED_ABS, DomainError, InvalidInputError, ModalgapError,
                   SeedSpec, draw_labeled, draw_unlabeled, sample_envelope,
                   sample_to_csv)
from .hypotheses import (BooleanLookupClass, BooleanMapClass,
                         ComposedSineClass, ScalingClass, SignCompleteClass,
                         SineSingletonClass)
from .instances import (instance_from_json, instance_to_json, make_separable_from_fixed_points,
                        make_sine)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_THRESHOLD = 2


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _csv(rows) -> str:
    if not rows:
        return ""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0].keys()),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


def _resolved_config(args) -> dict:
    config = {k: v for k, v in vars(args).items()
              if k != "func" and v is not None}
    config["command"] = args.command
    return config


def _load_instance(args):
    if args.instance:
        return instance_from_json(json.loads(Path(args.instance).read_text()))
    return None


_CLASSES = {"scaling": ScalingClass(), "signed-scaling": ScalingClass(signed=True),
            "boolean": BooleanMapClass(), "sign-complete": SignCompleteClass(),
            "singleton": SineSingletonClass(), "composed-sine": ComposedSineClass()}


def _class(name: str, connection: bool = False):
    """The class called name; with connection=True, only a connection class."""
    cls = _CLASSES.get(name)
    if cls is None or (connection and not hasattr(cls, "joint_candidates")):
        kind = "connection class" if connection else "class"
        raise DomainError(f"unknown {kind} {name!r}")
    return cls


def _parse_points(text: str) -> np.ndarray:
    points = np.array([float(v) for v in text.split(",") if v.strip() != ""])
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points must be finite numbers")
    return points


def _parse_signs(text: str):
    mapping = {"+": 1, "-": -1}
    try:
        return [mapping[ch] for ch in text.strip()]
    except KeyError:
        raise DomainError("signs must be a string of + and - characters")


# Each cmd_* returns (files, passed): the text of each result file by name,
# and the threshold verdict, True where the subcommand declares none.

def cmd_shatter(args):
    signs = _parse_signs(args.signs)
    if args.n is not None and args.n != len(signs):
        raise DomainError("--n disagrees with the number of signs")
    indices = [int(i) for i in args.indices.split(",")] if args.indices else None
    cert = shatter.construct(signs, convention=args.convention, indices=indices)
    files = {"certificate.json": _json(shatter.certificate_to_json(cert))}
    if args.table:
        files["certificate.csv"] = _csv(shatter.certificate_table_rows(cert))
    return files, True


def cmd_gaussavg(args):
    cls = _class(args.cls)
    if args.cls == "composed-sine":
        if not args.indices:
            raise DomainError("--cls composed-sine needs --indices")
        sample = [int(i) for i in args.indices.split(",")]
        flat = np.asarray(sample, dtype=float)
    elif not args.points:
        raise DomainError(f"--cls {args.cls} needs --points")
    elif args.cls == "singleton":
        flat = _parse_points(args.points)
        ys = _parse_points(args.y_points) if args.y_points else flat
        sample = (flat, ys)
    else:
        sample = flat = _parse_points(args.points)
    seed = SeedSpec(args.seed)
    fn = (complexity.gaussian_average if args.kind == "gaussian"
          else complexity.rademacher_average)
    est = fn(cls, sample, draws=args.draws, seed=seed, workers=args.workers)
    closed = (complexity.gaussian_average_closed_form(cls, sample)
              if args.kind == "gaussian"
              else complexity.rademacher_average_closed_form(cls, sample))
    data = est.to_json(cls=cls.to_json(), closed_form=closed,
                       sample_hash=hashlib.sha256(flat.tobytes()).hexdigest(),
                       seed=seed.to_json())
    return {"estimate.json": _json(data)}, True


def cmd_realizability(args):
    instance = _load_instance(args)
    cls = _class(args.cls, connection=True)
    sample = draw_unlabeled(instance, args.T, args.m, SeedSpec(args.seed))
    xs, ys = sample.pooled_xy()
    report = complexity.approximate_realizability(cls, xs.reshape(-1), ys)
    return {"realizability.json": _json(report.to_json())}, True


def _fit_classes(args):
    connection = _class(args.connection, connection=True)
    predictors = {"singleton": SineSingletonClass(),
                  "boolean-lookup": BooleanLookupClass(),
                  "sign-complete": SignCompleteClass()}
    if args.predictor not in predictors:
        raise DomainError(f"unknown predictor class {args.predictor!r}")
    return connection, predictors[args.predictor]


def cmd_fit_multimodal(args):
    instance = _load_instance(args)
    connection_cls, predictor_cls = _fit_classes(args)
    seed = SeedSpec(args.seed)
    labeled = draw_labeled(instance, args.T, args.n, seed)
    unlabeled = draw_unlabeled(instance, args.T, args.m, seed)
    solution = erm.fit_multimodal(labeled, unlabeled, connection_cls,
                                  predictor_cls, CLIPPED_ABS)
    data = solution.to_json()
    data["labeled"] = sample_envelope(labeled, seed)
    data["unlabeled"] = sample_envelope(unlabeled, seed)
    files = {"solution.json": _json(data)}
    if args.dump_samples:
        files["labeled.csv"] = sample_to_csv(labeled)
        files["unlabeled.csv"] = sample_to_csv(unlabeled)
    return files, True


def cmd_fit_unimodal(args):
    instance = _load_instance(args)
    seed = SeedSpec(args.seed)
    labeled = draw_labeled(instance, 1, args.n, seed)
    block = labeled.tasks[0]
    cls = _class(args.cls)
    solution = erm.fit_unimodal(np.column_stack((block.x[:, 0], block.z)), cls,
                                CLIPPED_ABS, grid_points=args.grid)
    data = solution.to_json()
    data["sample"] = sample_envelope(labeled, seed)
    return {"solution.json": _json(data)}, True


def cmd_fit_joint(args):
    instance = _load_instance(args)
    seed = SeedSpec(args.seed)
    labeled = draw_labeled(instance, args.T, args.n, seed)
    connection_cls, predictor_cls = _fit_classes(args)
    solution = erm.fit_joint(labeled, connection_cls, predictor_cls,
                             CLIPPED_ABS, budget=args.budget)
    data = solution.to_json()
    data["sample"] = sample_envelope(labeled, seed)
    return {"solution.json": _json(data)}, True


def cmd_bound(args):
    instance = _load_instance(args) or make_sine(0.7, support=12)
    if instance.support_enumeration(0) is None:
        raise DomainError("bound needs a finite-support instance")
    bound, report = analysis.bound_trial(instance, args.n, args.m, args.T,
                                         args.delta, SeedSpec(args.seed))
    data = bound.to_json()
    data["excess_risk"] = report.excess
    data["dominated"] = bool(report.excess <= bound.total)
    data["instance"] = instance_to_json(instance)
    return {"bound.json": _json(data)}, data["dominated"]


def cmd_gap(args):
    instance = _load_instance(args) or make_sine(0.7, support=args.support)
    cls = _class(args.cls)
    report = analysis.heterogeneity_gap(instance, cls, SineSingletonClass(),
                                        n=args.n, draws=args.draws,
                                        resamples=args.resamples,
                                        seed=SeedSpec(args.seed),
                                        workers=args.workers)
    return {"gap.json": _json(report.to_json())}, True


def cmd_separation(args):
    stats = analysis.unimodal_failure_experiment(
        n=args.n, trials=args.trials, seed=SeedSpec(args.seed), m=args.m,
        grid_points=args.grid)
    summary = stats.summary()
    return {"separation.csv": _csv(stats.rows()),
            "separation.json": _json(summary)}, summary["pass"]


def cmd_necessity(args):
    stats = analysis.realizability_necessity_experiment(
        n=args.n, T=args.T, trials=args.trials, seed=SeedSpec(args.seed))
    summary = stats.summary()
    return {"necessity.csv": _csv(stats.rows()),
            "necessity.json": _json(summary)}, summary["pass"]


def cmd_repr_compare(args):
    report = analysis.representation_comparison(
        n=args.n, k=args.k, seed=SeedSpec(args.seed), draws=args.draws,
        workers=args.workers)
    data = report.to_json()
    data["min_ratio"] = args.min_ratio
    data["pass"] = bool(report.ratio >= args.min_ratio)
    return {"repr_compare.json": _json(data)}, data["pass"]


def cmd_separability(args):
    points = [Fraction(p) for p in args.fixed_points.split(",")]
    instance = make_separable_from_fixed_points(points)
    sample = draw_labeled(instance, 1, args.sample_size, SeedSpec(args.seed))
    report = analysis.separability_check(instance, sample)
    data = report.to_json()
    expected = report.interior_fixed_points
    data["pass"] = bool(report.separable and report.crossings == expected)
    return {"separability.json": _json(data)}, data["pass"]


def _apply_config_defaults(argv):
    """--config JSON supplies defaults.  Its flags go between the subcommand
    and the command line's own flags; argparse keeps the last value given,
    so an explicit flag wins however it is spelled (--out=b, --sig).  The
    path is given as --config PATH or --config=PATH.  argparse reads a word
    that starts with "-" as a flag, so --signs -+- (or --sig -+-) becomes
    --signs=-+-."""
    words = []
    for arg in argv:
        flag = words[-1] if words else ""
        if len(flag) > 3 and "--signs".startswith(flag) and set(arg) <= set("+-"):
            words[-1] = f"{flag}={arg}"
        else:
            words.append(arg)
    argv = words
    idx = next((i for i, arg in enumerate(argv)
                if arg.partition("=")[0] == "--config"), None)
    if idx is None:
        return argv
    _, equals, path = argv[idx].partition("=")
    if not equals and idx + 1 < len(argv) and not argv[idx + 1].startswith("--"):
        path = argv[idx + 1]
    if not path:
        raise DomainError("--config needs the path of a JSON file")
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise DomainError("--config must name a JSON object")
    rest = argv[:idx] + argv[idx + (1 if equals else 2):]
    if rest and not rest[0].startswith("-"):
        command = [rest.pop(0)]
    else:
        # a replay names no subcommand, or only flags such as a new --out
        command = [str(config["command"])] if "command" in config else []
    recorded = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if key == "command" or value is False:
            continue
        # flag=value, so a value that starts with "-" is not read as a flag
        recorded.append(flag if value is True else f"{flag}={value}")
    return command + recorded + rest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalgap",
        description="Reproducible experiments for two-stage multimodal ERM "
                    "and its complexity / separation checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        p.add_argument("--json", action="store_true", help="echo summary to stdout")

    def workers(p):
        p.add_argument("--workers", type=int, default=1,
                       help="threads for the Monte Carlo draws; any count "
                            "gives the same result")

    p = sub.add_parser("shatter", help="exact sign-shattering certificate")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--signs", required=True)
    p.add_argument("--indices")
    p.add_argument("--convention", choices=list(shatter.CONVENTIONS),
                   default="sine-sign")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_shatter)

    p = sub.add_parser("gaussavg", help="Monte Carlo complexity average")
    common(p)
    workers(p)
    p.add_argument("--cls", required=True)
    p.add_argument("--points")
    p.add_argument("--y-points", dest="y_points")
    p.add_argument("--indices")
    p.add_argument("--kind", choices=["gaussian", "rademacher"],
                   default="gaussian")
    p.add_argument("--draws", type=int, default=10_000)
    p.set_defaults(func=cmd_gaussavg)

    p = sub.add_parser("realizability", help="approximate realizability")
    common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--cls", default="scaling")
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--m", type=int, default=100)
    p.set_defaults(func=cmd_realizability)

    p = sub.add_parser("fit-multimodal", help="two-stage multimodal ERM")
    common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--connection", default="scaling")
    p.add_argument("--predictor", default="singleton")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--dump-samples", action="store_true")
    p.set_defaults(func=cmd_fit_multimodal)

    p = sub.add_parser("fit-unimodal", help="single-modality grid ERM")
    common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--cls", default="composed-sine")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--grid", type=int, default=100_000)
    p.set_defaults(func=cmd_fit_unimodal)

    p = sub.add_parser("fit-joint", help="joint representation-style ERM")
    common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--connection", default="scaling")
    p.add_argument("--predictor", default="singleton")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=cmd_fit_joint)

    p = sub.add_parser("bound", help="assembled excess-risk bound")
    common(p)
    p.add_argument("--instance")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--m", type=int, default=512)
    p.add_argument("--T", type=int, default=4)
    p.add_argument("--delta", type=float, default=0.05)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("gap", help="heterogeneity gap estimate")
    common(p)
    workers(p)
    p.add_argument("--instance")
    p.add_argument("--cls", default="composed-sine")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--support", type=int, default=64)
    p.add_argument("--draws", type=int, default=2000)
    p.add_argument("--resamples", type=int, default=30)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("separation", help="unimodal failure statistics")
    common(p)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--grid", type=int, default=100_000)
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser("necessity", help="connection-necessity statistics")
    common(p)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--T", type=int, default=4)
    p.add_argument("--trials", type=int, default=400)
    p.set_defaults(func=cmd_necessity)

    p = sub.add_parser("repr-compare", help="collinear vs adversarial complexity")
    common(p)
    workers(p)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--draws", type=int, default=4096)
    p.add_argument("--min-ratio", type=float, default=1.0)
    p.set_defaults(func=cmd_repr_compare)

    p = sub.add_parser("separability", help="linear separability check")
    common(p)
    p.add_argument("--fixed-points", default="0,3/10,7/10,1")
    p.add_argument("--sample-size", type=int, default=512)
    p.set_defaults(func=cmd_separability)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config_defaults(argv))
        files, passed = args.func(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in {**files, "config.json": _json(_resolved_config(args))}.items():
            (out / name).write_text(text)
    except SystemExit as stop:
        # argparse has printed the help text (0) or a usage error, which must
        # not read as a failed threshold
        return EXIT_OK if stop.code == 0 else EXIT_ERROR
    except (ModalgapError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        for name in sorted(n for n in files if n.endswith(".json")):
            print(files[name], end="")
    return EXIT_OK if passed else EXIT_THRESHOLD


if __name__ == "__main__":
    raise SystemExit(main())
