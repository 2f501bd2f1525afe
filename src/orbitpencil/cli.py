"""Command line front end.

    workbench verify --config cfg.json [--seed N] [--out report.json]
                     [--format json|text] [--checks a,b,c]
    workbench list-checks

Exit codes: 0 all checks passed, 1 a check failed or a stage errored,
2 configuration problem.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import ConfigError
from .workbench import REGISTRY, emit_report, load_config, run_pipeline


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="workbench",
                                     description="Certify invariant bi-Poisson reduction on orbit tangent bundles.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification pipeline on a configuration")
    verify.add_argument("--config", required=True, help="path to a JSON configuration")
    verify.add_argument("--seed", type=int, default=None, help="override the master seed")
    verify.add_argument("--out", default=None, help="write the report to this path")
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.add_argument("--checks", default=None, help="comma-separated subset of check names")

    sub.add_parser("list-checks", help="print every check with its claim and default tolerance")
    return parser


def _cmd_list_checks() -> int:
    width = max(len(spec.name) for spec in REGISTRY)
    for spec in REGISTRY:
        kind = "control" if spec.kind == "control" else "check"
        bound = "<=" if spec.mode == "max" else ">="
        print(f"{spec.name:{width}s}  [{kind}, {bound} {spec.tolerance:g}]  {spec.anchor}")
    return 0


def _cmd_verify(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = int(args.seed)
        if args.checks is not None:
            cfg.checks = [name.strip() for name in args.checks.split(",") if name.strip()]
        report = run_pipeline(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        try:
            emit_report(report, args.out, fmt=args.format)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 1
        print(f"report written to {args.out}")
    else:
        rendered = report.to_json() if args.format == "json" else report.to_text()
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0 if report.verdict == "pass" else 1


def main(argv=None) -> int:
    # The objects alive now, mostly numpy's from the import, live until exit;
    # frozen, the collections of interpreter finalisation skip them.
    gc.freeze()
    args = _build_parser().parse_args(argv)
    if args.command == "list-checks":
        return _cmd_list_checks()
    return _cmd_verify(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
