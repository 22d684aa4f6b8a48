"""Command line entry points: run a config, inspect an ensemble archive,
summarize a directory of reports.

Exit codes: 0 success, 1 a PASS criterion failed, 2 config rejected before
any work, 3 a fault during the computation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .archive import ArchiveError, read_header
from .experiments import SchemaError, run_experiment


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        report, code = run_experiment(cfg, output_dir=args.output_dir)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    passed = report.get("passed")
    status = {True: "PASS", False: "FAIL", None: "DONE"}[passed]
    print(f"[{status}] {report['experiment']}")
    return code


def _cmd_inspect(args) -> int:
    try:
        header = read_header(args.archive)
    except (ArchiveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(header, sort_keys=True, indent=1))
    return 0


def _cmd_report(args) -> int:
    failures = 0
    found = 0
    for root, _, files in os.walk(args.directory):
        for name in sorted(files):
            if name != "report.json":
                continue
            found += 1
            with open(os.path.join(root, name)) as fh:
                rep = json.load(fh)
            passed = rep.get("passed")
            status = {True: "PASS", False: "FAIL", None: "DONE"}.get(passed, "????")
            if passed is False:
                failures += 1
            print(f"[{status}] {rep.get('experiment', '?'):>16}  {root}")
    if not found:
        print("no reports found", file=sys.stderr)
        return 2
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="torusgibbs",
                                     description="Gibbs-ensemble laboratory for "
                                                 "periodic dispersive PDE truncations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config (JSON)")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output-dir", default=None,
                       help="directory for report.json / report.csv / archives")
    p_run.set_defaults(func=_cmd_run)

    p_ins = sub.add_parser("inspect", help="print an ensemble archive header")
    p_ins.add_argument("archive")
    p_ins.set_defaults(func=_cmd_inspect)

    p_rep = sub.add_parser("report", help="summarize report.json files under a directory")
    p_rep.add_argument("directory")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
