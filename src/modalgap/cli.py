"""Command-line harness binding instances, fits, estimates, and experiments
into reproducible named runs.

Every run writes its resolved configuration next to the outputs, a JSON
summary, and (where the experiment is trial-based) a CSV of per-trial rows.
Outputs carry no timestamps, so identical configs re-produce identical
bytes; exit code 2 means the run finished but a declared threshold failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, complexity, erm, shatter
from .core import (CLIPPED_ABS, DomainError, ModalgapError, SeedSpec,
                   draw_labeled, draw_unlabeled, sample_envelope,
                   sample_to_csv)
from .hypotheses import (BooleanLookupClass, BooleanMapClass,
                         ComposedSineClass, ScalingClass, SignCompleteClass,
                         SineSingletonClass)
from .instances import (instance_from_json, instance_to_json, make_separable_from_fixed_points,
                        make_sine)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_THRESHOLD = 2


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows) -> None:
    if not rows:
        path.write_text("")
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolved_config(args) -> dict:
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "config") and v is not None}
    config["command"] = args.command
    return config


def _load_instance(args):
    if getattr(args, "instance", None):
        return instance_from_json(json.loads(Path(args.instance).read_text()))
    return None


def _seed(args) -> SeedSpec:
    return SeedSpec(args.seed)


_CLASSES = {"scaling": ScalingClass(), "signed-scaling": ScalingClass(signed=True),
            "boolean": BooleanMapClass(), "sign-complete": SignCompleteClass(),
            "singleton": SineSingletonClass(), "composed-sine": ComposedSineClass()}


def _class(name: str, connection: bool = False):
    """The class called name; with connection=True, only a connection class."""
    cls = _CLASSES.get(name)
    if cls is None or (connection and not hasattr(cls, "fit_connection")):
        kind = "connection class" if connection else "class"
        raise DomainError(f"unknown {kind} {name!r}")
    return cls


def _parse_points(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",") if v.strip() != ""])


def _parse_signs(text: str):
    mapping = {"+": 1, "-": -1}
    try:
        return [mapping[ch] for ch in text.strip()]
    except KeyError:
        raise DomainError("signs must be a string of + and - characters")


def cmd_shatter(args) -> int:
    out = _out_dir(args)
    signs = _parse_signs(args.signs)
    if args.n is not None and args.n != len(signs):
        raise DomainError("--n disagrees with the number of signs")
    indices = [int(i) for i in args.indices.split(",")] if args.indices else None
    cert = shatter.construct(signs, convention=args.convention, indices=indices)
    _write_json(out / "certificate.json", shatter.certificate_to_json(cert))
    if args.table:
        _write_csv(out / "certificate.csv", shatter.certificate_table_rows(cert))
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK


def cmd_gaussavg(args) -> int:
    out = _out_dir(args)
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
    fn = (complexity.gaussian_average if args.kind == "gaussian"
          else complexity.rademacher_average)
    est = fn(cls, sample, draws=args.draws, seed=_seed(args), workers=args.workers)
    closed = (complexity.gaussian_average_closed_form(cls, sample)
              if args.kind == "gaussian"
              else complexity.rademacher_average_closed_form(cls, sample))
    data = est.to_json(cls=cls.to_json(), closed_form=closed,
                       sample_hash=complexity.sample_bytes_hash(flat),
                       seed=_seed(args).to_json())
    _write_json(out / "estimate.json", data)
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK


def cmd_realizability(args) -> int:
    out = _out_dir(args)
    instance = _load_instance(args)
    cls = _class(args.cls, connection=True)
    sample = draw_unlabeled(instance, args.T, args.m, _seed(args))
    xs, ys = sample.pooled_xy()
    report = complexity.approximate_realizability(cls, xs.reshape(-1), ys)
    _write_json(out / "realizability.json", report.to_json())
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK


def _fit_classes(args):
    connection = _class(args.connection, connection=True)
    predictors = {"singleton": SineSingletonClass(),
                  "boolean-lookup": BooleanLookupClass(),
                  "sign-complete": SignCompleteClass()}
    if args.predictor not in predictors:
        raise DomainError(f"unknown predictor class {args.predictor!r}")
    return connection, predictors[args.predictor]


def cmd_fit_multimodal(args) -> int:
    out = _out_dir(args)
    instance = _load_instance(args)
    connection_cls, predictor_cls = _fit_classes(args)
    seed = _seed(args)
    labeled = draw_labeled(instance, args.T, args.n, seed)
    unlabeled = draw_unlabeled(instance, args.T, args.m, seed)
    solution = erm.fit_multimodal(labeled, unlabeled, connection_cls,
                                  predictor_cls, CLIPPED_ABS)
    data = solution.to_json()
    data["labeled"] = sample_envelope(labeled, seed)
    data["unlabeled"] = sample_envelope(unlabeled, seed)
    if args.dump_samples:
        (out / "labeled.csv").write_text(sample_to_csv(labeled))
        (out / "unlabeled.csv").write_text(sample_to_csv(unlabeled))
    _write_json(out / "solution.json", data)
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK


def cmd_fit_unimodal(args) -> int:
    out = _out_dir(args)
    instance = _load_instance(args)
    seed = _seed(args)
    labeled = draw_labeled(instance, 1, args.n, seed)
    block = labeled.tasks[0]
    cls = _class(args.cls)
    solution = erm.fit_unimodal(np.column_stack((block.x[:, 0], block.z)), cls,
                                CLIPPED_ABS, grid_points=args.grid)
    data = solution.to_json()
    data["sample"] = sample_envelope(labeled, seed)
    _write_json(out / "solution.json", data)
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK


def cmd_fit_joint(args) -> int:
    out = _out_dir(args)
    instance = _load_instance(args)
    seed = _seed(args)
    labeled = draw_labeled(instance, args.T, args.n, seed)
    connection_cls, predictor_cls = _fit_classes(args)
    solution = erm.fit_joint(labeled, connection_cls, predictor_cls,
                             CLIPPED_ABS, budget=args.budget)
    data = solution.to_json()
    data["sample"] = sample_envelope(labeled, seed)
    _write_json(out / "solution.json", data)
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK


def cmd_bound(args) -> int:
    out = _out_dir(args)
    instance = _load_instance(args) or make_sine(0.7, support=12)
    if instance.support_enumeration(0) is None:
        raise DomainError("bound needs a finite-support instance")
    seed = _seed(args)
    scaling = ScalingClass()
    singleton = SineSingletonClass()
    labeled = draw_labeled(instance, args.T, args.n, seed)
    unlabeled = draw_unlabeled(instance, args.T, args.m, seed)
    solution = erm.fit_multimodal(labeled, unlabeled, scaling, singleton,
                                  CLIPPED_ABS)
    report = analysis.excess_risk(solution, instance, singleton, CLIPPED_ABS)
    xs_pool, _ = unlabeled.pooled_xy()
    g_avg = scaling.closed_form_gaussian(xs_pool.reshape(-1))
    lipschitz = SineSingletonClass.lipschitz_on(instance.min_support_y())
    bound = analysis.risk_bound([0.0] * args.T, g_avg,
                                solution.stage1_objective, lipschitz,
                                args.delta, args.n, args.m, args.T)
    data = bound.to_json()
    data["excess_risk"] = report.excess
    data["dominated"] = bool(report.excess <= bound.total)
    data["instance"] = instance_to_json(instance)
    _write_json(out / "bound.json", data)
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK if data["dominated"] else EXIT_THRESHOLD


def cmd_gap(args) -> int:
    out = _out_dir(args)
    instance = _load_instance(args) or make_sine(0.7, support=args.support)
    cls = _class(args.cls)
    report = analysis.heterogeneity_gap(instance, cls, SineSingletonClass(),
                                        n=args.n, draws=args.draws,
                                        resamples=args.resamples,
                                        seed=_seed(args), workers=args.workers)
    _write_json(out / "gap.json", report.to_json())
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK


def cmd_separation(args) -> int:
    out = _out_dir(args)
    stats = analysis.unimodal_failure_experiment(
        n=args.n, trials=args.trials, seed=_seed(args), m=args.m,
        grid_points=args.grid)
    _write_csv(out / "separation.csv", stats.rows())
    _write_json(out / "separation.json", stats.summary())
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK if stats.summary()["pass"] else EXIT_THRESHOLD


def cmd_necessity(args) -> int:
    out = _out_dir(args)
    stats = analysis.realizability_necessity_experiment(
        n=args.n, T=args.T, trials=args.trials, seed=_seed(args))
    _write_csv(out / "necessity.csv", stats.rows())
    _write_json(out / "necessity.json", stats.summary())
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK if stats.summary()["pass"] else EXIT_THRESHOLD


def cmd_repr_compare(args) -> int:
    out = _out_dir(args)
    report = analysis.representation_comparison(
        n=args.n, k=args.k, seed=_seed(args), draws=args.draws,
        workers=args.workers)
    data = report.to_json()
    data["min_ratio"] = args.min_ratio
    data["pass"] = bool(report.ratio >= args.min_ratio)
    _write_json(out / "repr_compare.json", data)
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK if data["pass"] else EXIT_THRESHOLD


def cmd_separability(args) -> int:
    out = _out_dir(args)
    points = [Fraction(p) for p in args.fixed_points.split(",")]
    instance = make_separable_from_fixed_points(points)
    sample = draw_labeled(instance, 1, args.sample_size, _seed(args))
    report = analysis.separability_check(instance, sample)
    data = report.to_json()
    expected = report.interior_fixed_points
    data["pass"] = bool(report.separable and report.crossings == expected)
    _write_json(out / "separability.json", data)
    _write_json(out / "config.json", _resolved_config(args))
    return EXIT_OK if data["pass"] else EXIT_THRESHOLD


def _apply_config_defaults(parser, argv):
    """--config JSON supplies defaults; explicit flags win."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv) or argv[idx + 1].startswith("--"):
        raise DomainError("--config needs the path of a JSON file")
    config = json.loads(Path(argv[idx + 1]).read_text())
    if not isinstance(config, dict):
        raise DomainError("--config must name a JSON object")
    cleaned = argv[:idx] + argv[idx + 2:]
    command = cleaned[0] if cleaned else config.get("command")
    extra = []
    for key, value in config.items():
        if key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        if flag not in cleaned:
            if isinstance(value, bool):
                if value:
                    extra.append(flag)
            else:
                extra.extend([flag, str(value)])
    if not cleaned and command:
        cleaned = [command]
    return cleaned + extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalgap",
        description="Reproducible experiments for two-stage multimodal ERM "
                    "and its complexity / separation checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--json", action="store_true", help="echo summary to stdout")

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
    parser = build_parser()
    try:
        argv = _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        code = args.func(args)
    except (ModalgapError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    if getattr(args, "json", False):
        out = Path(args.out)
        for name in sorted(p.name for p in out.glob("*.json") if p.name != "config.json"):
            print((out / name).read_text(), end="")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
