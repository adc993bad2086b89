"""Command-line verification driver.

Subcommands run the identity suites and emit deterministic reports (text or
JSON).  Exit codes: 0 all checks passed, 1 at least one failure or
unresolved item, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Callable, NamedTuple, NoReturn

from . import hahn, reps, terwilliger, usl2
from .reporting import PASS, CheckItem, check

def _summary(total: int, passed: int) -> dict:
    return {"total": total, "passed": passed, "failed_or_unresolved": total - passed}


def _report(command: str, config: dict, items: list[CheckItem], **extra) -> dict:
    """The report of one subcommand: its items sorted by name, the
    certificates they carry, the summary and the overall verdict."""
    items = sorted(items, key=lambda i: i.name)
    report = {"command": command, "config": config, "items": [i.as_dict() for i in items], **extra}
    certificates = {
        i.reference: i.certificate.as_json_dict() for i in items if i.certificate is not None
    }
    if certificates:
        report["certificates"] = certificates
    passed = sum(i.status == PASS for i in items)
    report["summary"] = _summary(len(items), passed)
    report["ok"] = passed == len(items)
    return report


def run_verify_usl2(n_max: int) -> dict:
    items = (usl2.power_identity_suite(n_max) + usl2.verify_ue_presentation()
             + usl2.rho_property_suite())
    return _report("verify-usl2", {"n_max": n_max}, items)


def run_verify_hahn(degree_bound: int) -> dict:
    items = (
        hahn.verify_natural_well_defined()
        + hahn.verify_image_gradings()
        + hahn.verify_intertwining()
        + hahn.verify_hahn_identities(degree_bound)
        + hahn.verify_kernel_and_inverse(degree_bound)
    )
    return _report("verify-hahn", {"degree_bound": degree_bound}, items)


def run_repr(n_max: int) -> dict:
    return _report("repr", {"n_max": n_max}, reps.verify_ladder_modules(n_max))


def run_cube(d_min: int, d_max: int, base_bits: str | None) -> dict:
    items: list[CheckItem] = []
    per_d = []
    # the report names the base vertex b, but x -> x^b is an automorphism of
    # the cube, so the orbit computation does not depend on it
    for D in range(d_min, d_max + 1):
        cube = terwilliger.CubeAlgebra(D)
        sd = terwilliger.decompose_standard(cube)
        hd = terwilliger.decompose_halved(cube)
        dim = terwilliger.te_dimension(cube)
        formula = terwilliger.te_dimension_formula(D)
        checks = [
            check(f"D={D}: standard decomposition matches the closed form",
                  sd.formula_ok and sd.dimension_ok),
            check(f"D={D}: halved decomposition matches the closed form",
                  hd.labels_ok and hd.formula_ok and hd.dimension_ok),
            check(f"D={D}: Terwilliger dimension {dim} equals formula and Wedderburn sum",
                  dim == formula == hd.wedderburn_dimension),
        ]
        items += checks
        per_d.append(
            {
                "D": D,
                "base_vertex": base_bits or "0" * D,
                "standard_decomposition": [[n, m] for n, m in sorted(sd.multiplicities.items())],
                "halved_decomposition": [[str(label), m] for label, m in sorted(hd.blocks.items())],
                "te_dimension": dim,
                "formula_value": formula,
                "match": all(c.status == PASS for c in checks),
            }
        )
    config = {"d_min": d_min, "d_max": d_max, "base_vertex": base_bits}
    return _report("cube", config, items, per_d=per_d)


class Option(NamedTuple):
    """An integer option of a suite: typed as ``flag`` on the suite's
    subcommand and as ``all_flag`` on verify-all, parsed into ``dest``,
    which is ``all_flag`` without its dashes and with - as _, and refused
    outside [least, most]."""
    flag: str
    all_flag: str
    default: int
    least: int
    most: int

    @property
    def dest(self) -> str:
        return self.all_flag[2:].replace("-", "_")


class Suite(NamedTuple):
    help: str
    options: list[Option]
    run: Callable[[argparse.Namespace], dict]


# The runners look the run_* functions up when called, so a function replaced
# on this module is the one that runs.
#
# Each option's most keeps one run to about a second or less, so that an
# infeasible request is refused rather than left running.  Times are of one
# fresh `python -m hahnsl2 ... --format json` process (fastest and slowest of 3;
# 2-vCPU Intel Xeon, Python 3.11):
# - verify-usl2 --n-max 60: 1.23-1.27 s; the cost grows about as n^3.3, and
#   n-max 120 took 12.7 s.  This line and the verify-hahn one were timed in a
#   slower hour than the others: cube --d-min 2 --d-max 16 took 0.42 s in it.
# - repr --n-max 200: 1.21-1.26 s.
# - verify-hahn --degree-bound 11: 0.10-0.13 s, since every built-in target
#   certifies at degree <= 8.  A search that exhausts its bound grows about
#   4.5x per degree: on the ideal-exhaust benchmark's seed-1 target, which is
#   outside the ideal, 0.010 / 0.036 / 0.19 / 0.80 / 4.7 s at bounds 8 to 12.
# - cube --d-min 2 --d-max 16: 0.19-0.20 s.  The suite works on functions on
#   the C(D+3, 3) orbits of vertex pairs (969 at D = 16), not on 2^D
#   vertices, so its cost grows as a power of D: at one D, run_cube takes
#   0.0024 s at D = 7, 0.006 s at D = 10, 0.021 s at D = 16 and 0.043 s at
#   D = 20 (the least of 5 runs in one process).  At D = 16 about two fifths
#   of it builds and certifies the orbit operators, a quarter evaluates the
#   Casimir and its Krylov vectors, and a third closes the Terwilliger algebra
#   block by block.  --d-min has the same most, since it is at most --d-max.
SUITES = {
    "verify-usl2": Suite("PBW power identities and the even presentation",
                         [Option("--n-max", "--n-max", 8, 1, 60)],
                         lambda a: run_verify_usl2(a.n_max)),
    "verify-hahn": Suite("natural-map identities and ideal certificates",
                         [Option("--degree-bound", "--degree-bound", 8, 0, 11)],
                         lambda a: run_verify_hahn(a.degree_bound)),
    "repr": Suite("module family construction and classification",
                  [Option("--n-max", "--repr-n-max", 12, 0, 200)],
                  lambda a: run_repr(a.repr_n_max)),
    "cube": Suite("hypercube and halved-cube decompositions",
                  [Option("--d-min", "--d-min", 2, 2, 16),
                   Option("--d-max", "--d-max", 6, 2, 16)],
                  lambda a: run_cube(a.d_min, a.d_max, a.base_vertex)),
}


def run_verify_all(args) -> dict:
    reports = {command: suite.run(args) for command, suite in SUITES.items()}
    config = {o.dest: getattr(args, o.dest) for suite in SUITES.values() for o in suite.options}
    summaries = [r["summary"] for r in reports.values()]
    return {
        "command": "verify-all",
        "config": config | {"jobs": 1},
        "reports": reports,
        "ok": all(r["ok"] for r in reports.values()),
        "summary": _summary(
            sum(s["total"] for s in summaries), sum(s["passed"] for s in summaries)
        ),
    }


def render_text(report: dict) -> str:
    lines = [f"# {report['command']}"]
    if "reports" in report:
        for name in sorted(report["reports"]):
            lines.append(render_text(report["reports"][name]))
    else:
        for item in report["items"]:
            mark = "PASS" if item["status"] == PASS else item["status"].upper()
            extra = f" [bound={item['bound']}]" if "bound" in item else ""
            lines.append(f"{mark:22s} {item['identity']}{extra}")
        if "per_d" in report:
            for entry in report["per_d"]:
                lines.append(
                    f"D={entry['D']}: te_dimension={entry['te_dimension']} "
                    f"formula={entry['formula_value']} match={entry['match']}"
                )
    s = report["summary"]
    lines.append(
        f"summary: {s['passed']}/{s['total']} passed, "
        f"{s['failed_or_unresolved']} failed or unresolved"
    )
    return "\n".join(lines)


def emit(report: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
    else:
        text = render_text(report) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _declare(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """Declares the arguments of one subcommand on its parser, in SUITES order."""
    if command == "verify-all":
        options = [(o.all_flag, o) for suite in SUITES.values() for o in suite.options]
    else:
        options = [(o.flag, o) for o in SUITES[command].options]
    for flag, o in options:
        parser.add_argument(flag, dest=o.dest, type=int, default=o.default)
    if command in ("cube", "verify-all"):
        parser.add_argument("--base-vertex", default=None, help="base vertex as a bitstring")
    if command == "verify-all":
        parser.add_argument(
            "--jobs",
            type=int,
            choices=(1,),
            default=1,
            help="accepted for compatibility; the suites run one after another",
        )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--out", default=None, help="write the report to this path")
    return parser


# The whole tree is built only for root help, a missing or unknown
# subcommand, an argument the subcommand does not take and a refused value,
# so that each of these prints the root usage line; a process builds it once.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hahnsl2",
        description="Exact verification suites for the Hahn/sl2 correspondence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, suite in SUITES.items():
        _declare(sub.add_parser(command, help=suite.help), command)
    _declare(sub.add_parser("verify-all", help="run every suite"), "verify-all")
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parses argv with the parser of the subcommand it names, whose help and
    errors are the tree's for that subcommand, and anything else with the
    whole tree."""
    command = argv[0] if argv else None
    if command in SUITES or command == "verify-all":
        parser = _declare(argparse.ArgumentParser(prog=f"hahnsl2 {command}"), command)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = command
            return args
    return build_parser().parse_args(argv)


def _refuse(message: str) -> NoReturn:
    build_parser().error(message)


def _validate(args) -> None:
    """Refuses a value that parses but is out of range, with the tree's usage line."""
    if args.out is not None:
        if not args.out:
            _refuse("--out: the path is empty")
        if os.path.isdir(args.out):
            _refuse(f"--out: {args.out} is a directory, not a file")
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            _refuse(f"--out: directory {os.path.dirname(args.out)} does not exist")
    for suite in SUITES.values():
        for o in suite.options:  # each dest is on the suite's subcommand and on verify-all only
            value = getattr(args, o.dest, o.least)
            flag = o.all_flag if args.command == "verify-all" else o.flag
            if value < o.least:
                _refuse(f"{flag} must be at least {o.least}")
            if value > o.most:
                _refuse(f"{flag} must be at most {o.most}")
    if hasattr(args, "d_min"):
        if args.d_max < args.d_min:
            _refuse("--d-max must be at least --d-min")
        if args.base_vertex is not None:
            if args.d_min != args.d_max:
                _refuse("--base-vertex needs a single D (set d-min = d-max)")
            if set(args.base_vertex) - {"0", "1"} or len(args.base_vertex) != args.d_max:
                _refuse("--base-vertex must be a bitstring of length D")
            if args.base_vertex.count("1") % 2 != 0:
                _refuse("--base-vertex must have even weight for the halved cube")


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _validate(args)
    report = run_verify_all(args) if args.command == "verify-all" else SUITES[args.command].run(args)
    emit(report, args.format, args.out)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
