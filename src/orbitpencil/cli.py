"""Command line front end.

usage: workbench verify --config PATH [--seed N] [--out PATH]
                        [--format json|text] [--checks a,b,c]
       workbench list-checks
       workbench -h | --help

An option takes its value as ``--opt value`` or ``--opt=value``.
Exit codes: 0 all checks passed, 1 a check failed or a stage errored,
2 a malformed command line or a configuration problem.
"""

from __future__ import annotations

import gc
import getopt
import sys

from .errors import ConfigError
from .workbench import REGISTRY, emit_report, load_config, run_pipeline

# getopt, not argparse: importing argparse and building its parser costs every
# verify process about 0.4 MB resident and 5 ms more.
_HELP = (__doc__ or "").partition("\n\n")[2]
_USAGE = _HELP.partition("\n\n")[0]
_VERIFY_OPTIONS = ["config=", "seed=", "out=", "format=", "checks="]


def _parse(argv: list[str]) -> tuple[str | None, dict]:
    """(command, {option name: value}) of a command line, the seed an int; command None asks for help.

    Raises getopt.GetoptError on a malformed command line.
    """
    command, rest = (argv[0], argv[1:]) if argv else (None, [])
    if command in ("-h", "--help"):
        return None, {}
    if command not in ("verify", "list-checks"):
        raise getopt.GetoptError("expected a command, verify or list-checks" if command is None
                                 else f"unknown command {command!r}")
    pairs, extra = getopt.getopt(rest, "h", ["help"] + (_VERIFY_OPTIONS if command == "verify" else []))
    if extra:
        raise getopt.GetoptError(f"unexpected argument {extra[0]!r}")
    opts = {name.lstrip("-"): value for name, value in pairs}
    if "h" in opts or "help" in opts:
        return None, {}
    if command == "verify":
        if "config" not in opts:
            raise getopt.GetoptError("verify requires --config")
        if "seed" in opts:
            try:
                opts["seed"] = int(opts["seed"])
            except ValueError:
                raise getopt.GetoptError(f"--seed takes an integer, got {opts['seed']!r}") from None
        if opts.get("format", "json") not in ("json", "text"):
            raise getopt.GetoptError(f"--format takes json or text, got {opts['format']!r}")
    return command, opts


def _cmd_list_checks() -> int:
    width = max(len(spec.name) for spec in REGISTRY)
    for spec in REGISTRY:
        kind = "control" if spec.kind == "control" else "check"
        bound = "<=" if spec.mode == "max" else ">="
        print(f"{spec.name:{width}s}  [{kind}, {bound} {spec.tolerance:g}]  {spec.anchor}")
    return 0


def _cmd_verify(opts: dict) -> int:
    try:
        cfg = load_config(opts["config"])
        if "seed" in opts:
            cfg = cfg._replace(seed=opts["seed"])
        if "checks" in opts:
            cfg = cfg._replace(checks=[name.strip() for name in opts["checks"].split(",") if name.strip()])
        report = run_pipeline(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out, fmt = opts.get("out"), opts.get("format", "json")
    if out:
        try:
            emit_report(report, out, fmt=fmt)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 1
        print(f"report written to {out}")
    else:
        rendered = report.to_json() if fmt == "json" else report.to_text()
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0 if report.verdict == "pass" else 1


def main(argv=None) -> int:
    # The objects alive now, mostly numpy's from the import, live until exit;
    # frozen, the collections of interpreter finalisation skip them.
    gc.freeze()
    try:
        command, opts = _parse(sys.argv[1:] if argv is None else list(argv))
    except getopt.GetoptError as exc:
        print(f"{_USAGE}\nworkbench: error: {exc.msg}", file=sys.stderr)
        return 2
    if command is None:
        print(_HELP, end="")
        return 0
    if command == "list-checks":
        return _cmd_list_checks()
    return _cmd_verify(opts)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
