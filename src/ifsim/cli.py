"""Command-line interface.

Subcommands::

    dist      distance between two named sets of a dataset
    sim       dual similarity 1 - distance
    entropy   weighted entropy of a named set
    audit     axiom audit of a measure (or of the induced entropy)
    classify  max-similarity classification of a sample against the rest
    repro     run golden-value regression scenarios
    curve     tabulate a figure family as CSV

--data accepts a file path or a built-in dataset name (tableI_case1 ..
tableI_case5, tableIII).  --weights accepts "uniform" or a path to a JSON
list of numbers, held to the rule of a dataset's weights field; when
omitted, the dataset's own weights are used if present, else uniform.
Only wu and wu-lambda read weights: dist, sim and classify exit 2 on
--weights with xiao, yc or jgamma (a fixed 1/n mean), and ignore a dataset's.
Every command takes --out (a path, or 'stdout'); classify and curve also
take --format text|csv.  Numeric output is printed with 17
significant digits; CSV output is byte-stable for fixed inputs (fixed
column order, fixed formatting, newline-terminated rows).

Exit codes: 0 success, 1 any audit or scenario check failed, 2 usage or
parse errors, or a count that memory cannot hold (malformed input never
produces a bare traceback).

Each process imports only what its command runs: audit, recognition and
scenarios are imported inside the commands that use them, and building
the parser imports none of them, so --help of repro and curve does not
list the scenario and family ids (README lists them, and an unknown id
exits 2 with the known ones).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .core import IFS, IfsimError, WeightVector, uniform_weights
from .datasets import BUILTIN_DATASET_NAMES, _parse_weights, resolve_dataset
from .measures import entropy_ifs
from .registry import MEASURE_NAMES, WEIGHTED_MEASURES, get_measure

if TYPE_CHECKING:
    from .scenarios import CurveTable

_AUDIT_CHOICES = MEASURE_NAMES + ("entropy",)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _add_measure_flags(p: argparse.ArgumentParser, choices=MEASURE_NAMES) -> None:
    p.add_argument("--measure", required=True, choices=choices)
    p.add_argument("--lambda", type=float, default=None,
                   help="exponent for wu-lambda (> 0)")
    p.add_argument("--gamma", type=float, default=None, help="order for jgamma (> 0)")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="stdout", help="output path or 'stdout'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsim",
        description="strict Jensen-Shannon measures for intuitionistic fuzzy sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("dist", "distance between two sets"),
                       ("sim", "similarity between two sets")):
        p = sub.add_parser(name, help=text)
        _add_measure_flags(p)
        p.add_argument("--data", required=True,
                       help=f"dataset path or built-in name ({', '.join(BUILTIN_DATASET_NAMES)})")
        p.add_argument("--left", required=True, help="name of the first set")
        p.add_argument("--right", required=True, help="name of the second set")
        p.add_argument("--weights", default=None, help="'uniform' or a JSON list file")
        _add_out_flag(p)

    p = sub.add_parser("entropy", help="weighted entropy of a set")
    p.add_argument("--data", required=True)
    p.add_argument("--set", dest="set_name", required=True)
    p.add_argument("--weights", default=None)
    _add_out_flag(p)

    p = sub.add_parser("audit", help="axiom audit of a measure")
    _add_measure_flags(p, choices=_AUDIT_CHOICES)
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--samples", type=int, default=100_000,
                   help="random pairs and triples (chains are samples/10)")
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=20220714)
    _add_out_flag(p)

    p = sub.add_parser("classify", help="classify a sample against the other sets")
    _add_measure_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--sample", required=True, help="name of the test sample set")
    p.add_argument("--tie-tol", type=float, default=1e-4)
    p.add_argument("--weights", default=None)
    _add_out_flag(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("repro", help="run golden-value scenarios")
    p.add_argument("--scenario", required=True,
                   help="'all' or a scenario id")
    _add_out_flag(p)

    p = sub.add_parser("curve", help="tabulate a figure family")
    p.add_argument("--family", required=True,
                   help="a figure family id (fig3 = entropy-surface)")
    p.add_argument("--steps", type=int, default=101)
    _add_out_flag(p)
    p.add_argument("--format", choices=("text", "csv"), default="csv")

    return parser


def _emit(text: str, out: str) -> None:
    if out == "stdout":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_weights(arg: str | None, from_data: WeightVector | None, n: int) -> WeightVector:
    if arg is None:
        return from_data if from_data is not None else uniform_weights(n)
    if arg == "uniform":
        return uniform_weights(n)
    try:  # unreadable, not UTF-8, not JSON (the decode errors are ValueErrors), or too deep
        raw = json.loads(Path(arg).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise IfsimError(f"cannot read weights file {arg!r}: {exc}") from exc
    try:  # the rule of a dataset's weights field
        return _parse_weights(raw, n)
    except IfsimError as exc:
        raise IfsimError(f"weights file {arg!r}: {exc}") from exc


def _measure_params(args: argparse.Namespace) -> dict:
    """The --lambda and --gamma flags given, as measure parameters;
    get_measure rejects a missing one and one the measure does not take,
    and --weights (dist, sim, classify) is refused where the measure ignores it."""
    if getattr(args, "weights", None) is not None and args.measure not in WEIGHTED_MEASURES:
        raise IfsimError(f"measure {args.measure!r} averages with a fixed 1/n and takes no --weights")
    return {name: getattr(args, name) for name in ("lambda", "gamma")
            if getattr(args, name) is not None}


def _get_set(sets: dict[str, IFS], name: str) -> IFS:
    if name not in sets:
        raise IfsimError(f"set {name!r} not in dataset (has: {', '.join(sets)})")
    return sets[name]


def _cmd_dist(args: argparse.Namespace) -> int:
    md = get_measure(args.measure, **_measure_params(args))  # before any file is read
    sets, data_w = resolve_dataset(args.data)
    left, right = _get_set(sets, args.left), _get_set(sets, args.right)
    value = md.evaluator(left, right, _load_weights(args.weights, data_w, len(left)))
    if args.command == "sim":
        value = 1.0 - value
    _emit(_fmt(value) + "\n", args.out)
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    sets, data_w = resolve_dataset(args.data)
    target = _get_set(sets, args.set_name)
    w = _load_weights(args.weights, data_w, len(target))
    _emit(_fmt(entropy_ifs(target, w)) + "\n", args.out)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .audit import AuditConfig, audit_distance, audit_entropy

    params = _measure_params(args)
    if args.measure == "entropy" and params:
        raise IfsimError(f"measure 'entropy' does not take: {', '.join(params)}")
    config = AuditConfig(
        grid_step=args.grid_step,
        random_pairs=args.samples,
        random_triples=args.samples,
        chain_samples=max(1, args.samples // 10),
        seed=args.seed,
        tolerance=args.tolerance,
    )
    if args.measure == "entropy":
        report = audit_entropy(config)
    else:
        report = audit_distance(get_measure(args.measure, **params), config)
    _emit(report.to_text() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    from .recognition import PatternLibrary, classify

    md = get_measure(args.measure, **_measure_params(args))  # before any file is read
    sets, data_w = resolve_dataset(args.data)
    sample = _get_set(sets, args.sample)
    patterns = tuple((name, ifs) for name, ifs in sets.items() if name != args.sample)
    if not patterns:
        raise IfsimError("dataset holds no patterns besides the sample")
    lib = PatternLibrary(patterns, _load_weights(args.weights, data_w, len(sample)))
    result = classify(lib, sample, md, tie_tol=args.tie_tol)
    lines = [f"{name},{_fmt(score)}" for name, score in result.scores]
    if args.format == "csv":
        text = "pattern,similarity\n" + "\n".join(lines) + "\n"
    else:
        text = "\n".join(f"{name}: {_fmt(score)}" for name, score in result.scores) + "\n"
        if result.undecided:
            text += f"undecided (tie margin {_fmt(result.tie_margin)} <= {_fmt(args.tie_tol)})\n"
        else:
            text += f"winner: {result.winner} (margin {_fmt(result.tie_margin)})\n"
    _emit(text, args.out)
    return 0


def _cmd_repro(args: argparse.Namespace) -> int:
    from .scenarios import SCENARIO_IDS, run_scenario

    ids = SCENARIO_IDS if args.scenario == "all" else (args.scenario,)
    reports = [run_scenario(s) for s in ids]
    text = "\n\n".join(r.to_text() for r in reports) + "\n"
    ok = all(r.passed for r in reports)
    if len(reports) > 1:
        text += f"\n{sum(r.passed for r in reports)}/{len(reports)} scenarios passed\n"
    _emit(text, args.out)
    return 0 if ok else 1


def _curve_text(table: CurveTable, csv: bool) -> str:
    sep = "," if csv else "  "
    row = sep.join(["%.17g"] * len(table.columns))  # _fmt's format, one row at a time
    lines = [sep.join(table.columns), *(row % tuple(r) for r in table.rows.tolist())]
    return "\n".join(lines) + "\n"


def _cmd_curve(args: argparse.Namespace) -> int:
    from .scenarios import sweep_curve

    table = sweep_curve(args.family, args.steps)
    _emit(_curve_text(table, csv=args.format == "csv"), args.out)
    return 0


_COMMANDS = {
    "dist": _cmd_dist,
    "sim": _cmd_dist,
    "entropy": _cmd_entropy,
    "audit": _cmd_audit,
    "classify": _cmd_classify,
    "repro": _cmd_repro,
    "curve": _cmd_curve,
}


def main(argv: list[str] | None = None) -> int:
    try:  # the subcommand is required, so argparse rejects an unknown one
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles -h and usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (IfsimError, OSError, MemoryError) as exc:  # a bare MemoryError has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
