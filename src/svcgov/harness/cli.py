"""Command-line entry point.

Subcommands: ``validate`` (ontology and scenario files), ``run`` (one
scenario, emitting trace documents), ``bench`` (family x subject x seeds,
emitting metric reports), ``compare`` (reports to a CSV table with
verdicts), and ``demo strict-extension``.  Failures exit nonzero with a
machine-readable error code on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import (
    ConfigError,
    GovernanceError,
    ParseError,
    ReportedError,
    ValidationError,
)
from ..memory import load as load_store
from ..ontology import load_schema
from ..orchestrator import run as run_scenario
from . import baselines, bench, demo
from .packs import PACK_NAMES, load_pack
from .scenario import _read, load_config, load_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_CONFIG = 4
EXIT_RUNTIME = 5


def _fail(exc: GovernanceError) -> int:
    detail = "\n  ".join(exc.violations) if isinstance(exc, ReportedError) else str(exc)
    print(f"error {exc.code}: {detail}", file=sys.stderr)
    if isinstance(exc, (ParseError, ValidationError)):
        return EXIT_INVALID
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    return EXIT_RUNTIME


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.ontology:
        load_schema(_read(Path(args.ontology), "ontology"))
        print(f"ontology ok: {args.ontology}")
    scenario = None
    if args.scenario:
        scenario = load_scenario(args.scenario)
        print(f"scenario ok: {scenario.name} ({scenario.ticks} ticks)")
    if args.config:
        if scenario is None:
            print("error config: --config requires --scenario", file=sys.stderr)
            return EXIT_USAGE
        load_config(args.config, scenario.schema, scenario.assertions)
        print(f"config ok: {args.config}")
    if not (args.ontology or args.scenario or args.config):
        for name in PACK_NAMES:
            load_pack(name)
            print(f"pack ok: {name}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    if args.pack:
        if args.scenario or args.config:
            print("error usage: --pack takes neither --scenario nor --config", file=sys.stderr)
            return EXIT_USAGE
        scenario, cfg = load_pack(args.pack)
    else:
        if not (args.scenario and args.config):
            print("error usage: provide --pack or both --scenario and --config", file=sys.stderr)
            return EXIT_USAGE
        scenario = load_scenario(args.scenario)
        cfg = load_config(args.config, scenario.schema, scenario.assertions)
    if args.baseline:
        cfg = baselines.configure(cfg, args.baseline)
    store = load_store(args.store) if args.store else None
    result = run_scenario(scenario, cfg, store)

    doc = result.document(scenario.name, cfg)
    summary = result.summary_csv()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{scenario.name}.trace.json").write_text(doc + "\n", encoding="utf-8")
        (out / f"{scenario.name}.summary.csv").write_text(summary, encoding="utf-8")
        print(f"wrote {out / (scenario.name + '.trace.json')}")
    else:
        print(summary, end="")
    selected = sum(1 for t in result.traces if t.kind in ("selected", "fallback"))
    print(f"run complete: {len(result.traces)} ticks, {selected} deployments")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    reports = []
    for subject in args.subject:
        report = bench.run_benchmark(args.family, subject, args.seeds)
        reports.append((subject, report))
        print(
            f"{args.family} {subject}: identity={report.identity_preservation_rate:.3f} "
            f"safe={report.safe_reconfiguration_rate:.3f} regret={report.structural_regret:.3f}"
        )
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{args.family}.{subject}.report.json"
            path.write_text(bench.report_to_json(report) + "\n", encoding="utf-8")
    if args.out and len(reports) >= 2:
        table = bench.compare(reports)
        path = Path(args.out) / f"{args.family}.compare.csv"
        path.write_text(table.render(), encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    reports = []
    for path in args.reports:
        report = bench.report_from_json(_read(Path(path), "report"))
        reports.append((report.subject, report))
    table = bench.compare(reports)
    print(table.render(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "compare.csv").write_text(table.render(), encoding="utf-8")
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    report = demo.strict_extension()
    print(report.render(), end="")
    ok = report.ontology_accepts == 2 and report.fully_admissible == 1
    return EXIT_OK if ok else EXIT_RUNTIME


def _seeds(value: str) -> list[int]:
    try:
        seeds = [int(s) for s in value.split(",") if s != ""]
    except ValueError:
        seeds = []  # refused below, with the message an empty list gets
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected comma-separated integer seeds, got {value!r}")
    if twice := bench.repeated(seeds):
        raise argparse.ArgumentTypeError(f"seeds named more than once: {', '.join(map(str, twice))}")
    return seeds


def _subjects(value: str) -> list[str]:
    """Comma-separated known subjects, each at most once; empty means all of
    them."""
    subjects = value.split(",") if value else list(baselines.SUBJECTS)
    if unknown := [repr(s) for s in subjects if s not in baselines.SUBJECTS]:
        known = ", ".join(baselines.SUBJECTS)
        raise argparse.ArgumentTypeError(f"unknown subjects: {', '.join(unknown)}; expected one of {known}")
    if twice := bench.repeated(subjects):
        raise argparse.ArgumentTypeError(f"subjects named more than once: {', '.join(twice)}")
    return subjects


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svcgov",
        description="Admissibility governance for runtime reconfiguration of typed service graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate ontology, scenario, and config files")
    p.add_argument("--ontology")
    p.add_argument("--scenario")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run one scenario and emit traces")
    p.add_argument("--pack", choices=PACK_NAMES)
    p.add_argument("--scenario")
    p.add_argument("--config")
    p.add_argument("--baseline", choices=baselines.SUBJECTS, help="run as this subject (default: the config's flags)")
    p.add_argument("--store", help="persisted memory store to start from")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="run benchmark families over seeds")
    p.add_argument("--family", required=True, choices=bench.FAMILIES)
    p.add_argument("--subject", default="", type=_subjects, help="comma-separated subjects (default: all)")
    p.add_argument("--seeds", required=True, type=_seeds, help="comma-separated integer seeds")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("compare", help="compare benchmark reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("demo", help="run a built-in demonstration")
    p.add_argument("which", choices=["strict-extension"])
    p.set_defaults(func=_cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GovernanceError as exc:
        return _fail(exc)
    except OSError as exc:
        print(f"error io: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
