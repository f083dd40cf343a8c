"""Command-line front end.

Every subcommand prints a report as `key: value` lines (or, with --json,
one JSON document carrying the same field names) and uses a uniform exit
code scheme:

  0  success
  1  bad input (labels, files, flags, expressions)
  2  size budget exceeded (override with the COHOMKIT_SIZE_BUDGET variable)
  3  descent failure or catalog exhaustion

Timing lines are suppressed by --no-timing so reports are byte-stable.
"""

import argparse
import json
import os
import sys
import time

from .cochains import CochainError, cochain_dimension
from .cohomology import SizeBudgetError, class_coordinates, compute_cohomology
from .groups import FiniteGroup, GroupFormatError
from .lifting import CoverExhaustionError, default_catalog, realize
from .skeletons import (
    DescentError,
    fiber_product,
    opposite,
    pentagon_defect,
    twist,
)
from .textio import (
    TextFormatError,
    read_cochain,
    read_skeleton,
    resolve_group,
    write_cochain,
    write_skeleton,
)
from .witt import (
    ExpressionError,
    admits_minimal_extension,
    eta,
    evaluate_expression,
    phi,
)


class _Report:
    """Ordered key/value accumulator rendered as text or JSON."""

    def __init__(self, timing: bool):
        self.fields: list[tuple[str, object]] = []
        self.timing = timing
        self.start = time.perf_counter()

    def add(self, key: str, value) -> None:
        self.fields.append((key, value))

    def emit(self, as_json: bool) -> None:
        if self.timing:
            self.fields.append(
                ("time_seconds", round(time.perf_counter() - self.start, 3)))
        if as_json:
            print(json.dumps(dict(self.fields)))
            return
        for key, value in self.fields:
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            if key.startswith("H^"):
                # cohomology shape lines keep the equation form: H^4 = Z/2 + Z/2
                print(f"{key} = {value}")
            else:
                print(f"{key}: {value}")


def _add_shape(report: _Report, cohomology) -> None:
    """The `H^n = Z/a + ...` line, keyed by its left-hand side."""
    key, value = cohomology.describe().split(" = ", 1)
    report.add(key, value)


def _load_group(token: str) -> FiniteGroup:
    return resolve_group(token, os.getcwd())


def _coords_text(coords) -> str:
    return ",".join(str(c) for c in coords)


def _parse_coords(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise TextFormatError(f"bad coordinate list {text!r}: {exc}") from exc


def _cmd_coh(args, report: _Report) -> int:
    group = _load_group(args.group)
    cohomology = compute_cohomology(group, args.degree)
    report.add("group", f"{group.name} (order {group.order})")
    report.add("degree", args.degree)
    rows = cochain_dimension(group.order, args.degree + 1)
    cols = cochain_dimension(group.order, args.degree)
    report.add("matrix", f"{rows} x {cols}")
    _add_shape(report, cohomology)
    if args.dump_generators:
        os.makedirs(args.dump_generators, exist_ok=True)
        written = []
        for i, generator in enumerate(cohomology.generators, start=1):
            path = os.path.join(args.dump_generators, f"generator_{i}.cochain")
            write_cochain(path, generator)
            written.append(path)
        report.add("generators_written", written)
    return 0


def _describe_defect(defect, report: _Report) -> None:
    cohomology = compute_cohomology(defect.base, 4)
    report.add("base", f"{defect.base.name} (order {defect.base.order})")
    report.add("defect_entries", len(defect.cocycle.entries))
    report.add("class", _coords_text(class_coordinates(defect.cocycle, cohomology)))
    _add_shape(report, cohomology)


def _cmd_defect(args, report: _Report) -> int:
    skeleton = read_skeleton(args.skeleton)
    report.add("skeleton", args.skeleton)
    report.add("cover", f"{skeleton.cover.name} (order {skeleton.cover.order})")
    defect = pentagon_defect(skeleton)
    _describe_defect(defect, report)
    if args.out:
        write_cochain(args.out, defect.cocycle)
        report.add("cocycle_written", args.out)
    return 0


def _cmd_twist(args, report: _Report) -> int:
    skeleton = read_skeleton(args.skeleton)
    cochain = read_cochain(args.twist_by, skeleton.base)
    twisted = twist(skeleton, cochain)
    write_skeleton(args.out, twisted)
    report.add("skeleton", args.skeleton)
    report.add("twisted_by", args.twist_by)
    report.add("skeleton_written", args.out)
    return 0


def _cmd_oppose(args, report: _Report) -> int:
    skeleton = read_skeleton(args.skeleton)
    write_skeleton(args.out, opposite(skeleton))
    report.add("skeleton", args.skeleton)
    report.add("skeleton_written", args.out)
    return 0


def _cmd_fibprod(args, report: _Report) -> int:
    left = read_skeleton(args.left)
    right = read_skeleton(args.right)
    product = fiber_product(left, right)
    write_skeleton(args.out, product)
    report.add("left", args.left)
    report.add("right", args.right)
    report.add("cover", f"{product.cover.name} (order {product.cover.order})")
    report.add("skeleton_written", args.out)
    return 0


def _cmd_lift(args, report: _Report) -> int:
    group = _load_group(args.group)
    cohomology = compute_cohomology(group, 4)
    coords = _parse_coords(args.omega)
    factors = cohomology.invariant_factors
    if len(coords) > len(factors):
        raise TextFormatError(
            f"{len(coords)} coordinates against {len(factors)} invariant factors")
    coords += [0] * (len(factors) - len(coords))
    skeleton = realize(group, coords, cohomology,
                       default_catalog(args.max_cover))
    report.add("group", f"{group.name} (order {group.order})")
    _add_shape(report, cohomology)
    report.add("omega", _coords_text(coords))
    report.add("cover", f"{skeleton.cover.name} (order {skeleton.cover.order})")
    report.add("grading", list(skeleton.grading.images))
    report.add("associator_entries", len(skeleton.associator.entries))
    if args.out:
        write_skeleton(args.out, skeleton)
        report.add("skeleton_written", args.out)
    return 0


def _cmd_witt(args, report: _Report) -> int:
    group = _load_group(args.group)
    cohomology = compute_cohomology(group, 4)
    element = evaluate_expression(args.expr, cohomology)
    report.add("group", f"{group.name} (order {group.order})")
    _add_shape(report, cohomology)
    report.add("element", element.describe())
    word = phi(element)
    report.add("w_part",
               " * ".join(s if e == 1 else f"{s}^{e}" for s, e in word)
               if word else "1")
    report.add("eta", _coords_text(eta(element)) or "-")
    report.add("admits_minimal_extension", admits_minimal_extension(element))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohomkit",
        description="Exact degree-4 cohomology, pentagon defects, and the "
                    "split Witt ledger for small finite groups.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--no-timing", action="store_true",
                        help="omit the timing line (byte-stable reports)")
    common.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of text lines")
    sub = parser.add_subparsers(dest="command", required=True)

    coh = sub.add_parser("coh", parents=[common],
                         help="invariant factors of H^n(G, Q/Z)")
    coh.add_argument("--group", required=True, help="catalog label or group file")
    coh.add_argument("--degree", required=True, type=int)
    coh.add_argument("--dump-generators", metavar="DIR",
                     help="write generating cocycles as cochain files")
    coh.set_defaults(func=_cmd_coh)

    defect = sub.add_parser("defect", parents=[common],
                            help="descend a skeleton's pentagon defect")
    defect.add_argument("--skeleton", required=True)
    defect.add_argument("--out", help="write the defect cocycle here")
    defect.set_defaults(func=_cmd_defect)

    tw = sub.add_parser("twist", parents=[common],
                        help="twist the associator by a base 3-cochain")
    tw.add_argument("--skeleton", required=True)
    tw.add_argument("--twist-by", required=True, metavar="COCHAIN")
    tw.add_argument("--out", required=True)
    tw.set_defaults(func=_cmd_twist)

    op = sub.add_parser("oppose", parents=[common],
                        help="the opposite skeleton (defect class negates)")
    op.add_argument("--skeleton", required=True)
    op.add_argument("--out", required=True)
    op.set_defaults(func=_cmd_oppose)

    fp = sub.add_parser("fibprod", parents=[common],
                        help="fiber product over a common base (classes add)")
    fp.add_argument("--left", required=True)
    fp.add_argument("--right", required=True)
    fp.add_argument("--out", required=True)
    fp.set_defaults(func=_cmd_fibprod)

    lift = sub.add_parser("lift", parents=[common],
                          help="realize a degree-4 class as a pentagon defect")
    lift.add_argument("--group", required=True)
    lift.add_argument("--omega", nargs="?", const="", default="",
                      help="class coordinates c1,c2,... (short lists padded "
                           "with zeros)")
    lift.add_argument("--max-cover", type=int, default=16,
                      help="largest catalog cover order to try (default 16)")
    lift.add_argument("--out", help="write the realized skeleton here")
    lift.set_defaults(func=_cmd_lift)

    witt = sub.add_parser("witt", parents=[common],
                          help="evaluate a ledger expression over a group")
    witt.add_argument("--group", required=True)
    witt.add_argument("--expr", required=True,
                      help="S(sym), H4(c1,...), *, inv(...), pow(..., n)")
    witt.set_defaults(func=_cmd_witt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot belongs to the budget
        return 0 if not exc.code else 1
    report = _Report(timing=not args.no_timing)
    try:
        status = args.func(args, report)
    except SizeBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DescentError, CoverExhaustionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TextFormatError, GroupFormatError, CochainError, ExpressionError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.emit(args.json)
    return status


if __name__ == "__main__":
    sys.exit(main())
