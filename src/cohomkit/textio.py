"""Line-oriented text formats for groups, cochains, and skeletons.

All three formats are UTF-8, keyword-led, and end with ``end``:

  group <name> / order <n> / table / <n rows of n indices> / end

  cochain / group <label-or-file> / degree <k> / coeff <qz|int>
      / entry i1 ... ik <value> ...               (unlisted tuples are zero)
      / end                                       (duplicate tuples rejected)

  skeleton / cover <label-or-file> / base <label-or-file>
      / grading i0 i1 ... i(n-1)                  (image of each cover element)
      / associator / <cochain block> / end

A ``<label-or-file>`` token is tried as a catalog label first and then as a
path, relative to the referencing file.  Writers emit the label when the
group's name is one that round-trips through the catalog, and otherwise
write a sibling group file and reference it by name, so every emitted file
set is self-contained.
"""

import os

from .qz import QZ
from .cochains import Cochain, CochainError
from .groups import FiniteGroup, GroupFormatError, GroupHom, from_label
from .skeletons import QuasiMonoidalSkeleton


class TextFormatError(ValueError):
    pass


def parse_qz(token: str) -> QZ:
    """Accepts `num/den` or a bare integer (an integer is zero mod 1)."""
    try:
        return QZ.parse(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise TextFormatError(f"bad circle value {token!r}: {exc}") from exc


def format_qz(value: QZ) -> str:
    return f"{value.num}/{value.den}"


class _Lines:
    """Non-blank, comment-stripped lines, numbered for error messages."""

    def __init__(self, iterable):
        self.source = iter(iterable)
        self.number = 0

    def next(self):
        for raw in self.source:
            self.number += 1
            line = raw.split("#", 1)[0].strip()
            if line:
                return line
        raise TextFormatError("unexpected end of input")


def _expect(lines: _Lines, keyword: str) -> list[str]:
    line = lines.next()
    parts = line.split()
    if parts[0] != keyword:
        raise TextFormatError(
            f"line {lines.number}: expected {keyword!r}, found {parts[0]!r}")
    return parts[1:]


def read_group_lines(lines: _Lines) -> FiniteGroup:
    head = _expect(lines, "group")
    if not head:
        raise TextFormatError("group line needs a name")
    # catalog product labels contain spaces, so the name is the whole tail
    name = " ".join(head)
    order_parts = _expect(lines, "order")
    if len(order_parts) != 1 or not order_parts[0].isdigit():
        raise TextFormatError("order line needs one integer")
    order = int(order_parts[0])
    if _expect(lines, "table"):
        raise TextFormatError("table line takes no arguments")
    rows = []
    for _ in range(order):
        row = lines.next().split()
        if len(row) != order:
            raise TextFormatError(
                f"table row has {len(row)} entries, expected {order}")
        try:
            rows.append(tuple(int(v) for v in row))
        except ValueError as exc:
            raise TextFormatError(f"bad table entry: {exc}") from exc
    if _expect(lines, "end"):
        raise TextFormatError("end line takes no arguments")
    try:
        return FiniteGroup(name, tuple(rows))
    except GroupFormatError as exc:
        raise TextFormatError(f"invalid group table: {exc}") from exc


def read_group(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as handle:
        return read_group_lines(_Lines(handle))


def write_group(path: str, group: FiniteGroup) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(group_text(group))


def group_text(group: FiniteGroup) -> str:
    lines = [f"group {group.name}", f"order {group.order}", "table"]
    lines += [" ".join(str(v) for v in row) for row in group.table]
    lines.append("end")
    return "\n".join(lines) + "\n"


def resolve_group(token: str, base_dir: str = ".") -> FiniteGroup:
    """A catalog label, or failing that a group file next to the referrer."""
    try:
        return from_label(token)
    except GroupFormatError:
        pass
    path = token if os.path.isabs(token) else os.path.join(base_dir, token)
    if not os.path.exists(path):
        raise TextFormatError(
            f"{token!r} is neither a catalog label nor an existing file")
    return read_group(path)


def _label_round_trips(group: FiniteGroup) -> bool:
    try:
        return from_label(group.name).table == group.table
    except GroupFormatError:
        return False


def _group_reference(group: FiniteGroup, out_path: str, suffix: str) -> str:
    """Label when possible, else a sibling file written now."""
    if _label_round_trips(group):
        return group.name
    ref = os.path.basename(out_path) + suffix
    write_group(os.path.join(os.path.dirname(os.path.abspath(out_path)), ref), group)
    return ref


def read_cochain_lines(lines: _Lines, base_dir: str = ".",
                       group: FiniteGroup | None = None) -> Cochain:
    """Parse one cochain block; with `group` given, the block's group
    reference must resolve to the same multiplication table."""
    _expect(lines, "cochain")
    ref = _expect(lines, "group")
    if not ref:
        raise TextFormatError("cochain group line needs a label or file")
    ref = [" ".join(ref)]
    block_group = resolve_group(ref[0], base_dir)
    if group is not None:
        if block_group.table != group.table:
            raise TextFormatError(
                f"cochain group {ref[0]!r} does not match the expected group")
        block_group = group
    degree_parts = _expect(lines, "degree")
    if len(degree_parts) != 1 or not degree_parts[0].isdigit():
        raise TextFormatError("degree line needs one non-negative integer")
    degree = int(degree_parts[0])
    coeff_parts = _expect(lines, "coeff")
    if coeff_parts not in (["qz"], ["int"]):
        raise TextFormatError("coeff line must say qz or int")
    kind = coeff_parts[0]
    entries = {}
    while True:
        line = lines.next()
        if line == "end":
            break
        parts = line.split()
        if parts[0] != "entry":
            raise TextFormatError(
                f"line {lines.number}: expected entry or end, found {parts[0]!r}")
        if len(parts) != degree + 2:
            raise TextFormatError(
                f"line {lines.number}: entry needs {degree} indices and a value")
        try:
            key = tuple(int(v) for v in parts[1:degree + 1])
        except ValueError as exc:
            raise TextFormatError(f"bad entry index: {exc}") from exc
        if key in entries:
            raise TextFormatError(f"duplicate entry for tuple {key}")
        if kind == "qz":
            value = parse_qz(parts[-1])
        else:
            try:
                value = int(parts[-1])
            except ValueError as exc:
                raise TextFormatError(f"bad integer value {parts[-1]!r}") from exc
        entries[key] = value
    try:
        return Cochain(block_group, degree, kind, entries)
    except CochainError as exc:
        raise TextFormatError(f"invalid cochain: {exc}") from exc


def read_cochain(path: str, group: FiniteGroup | None = None) -> Cochain:
    with open(path, "r", encoding="utf-8") as handle:
        return read_cochain_lines(
            _Lines(handle), os.path.dirname(os.path.abspath(path)), group)


def cochain_text(f: Cochain, group_ref: str) -> str:
    lines = ["cochain", f"group {group_ref}", f"degree {f.degree}",
             f"coeff {f.kind}"]
    for key in sorted(f.entries):
        value = f.entries[key]
        text = format_qz(value) if f.kind == "qz" else str(value)
        lines.append("entry " + " ".join(str(i) for i in key) + " " + text)
    lines.append("end")
    return "\n".join(lines) + "\n"


def write_cochain(path: str, f: Cochain) -> None:
    ref = _group_reference(f.group, path, ".group")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(cochain_text(f, ref))


def read_skeleton_lines(lines: _Lines, base_dir: str = ".") -> QuasiMonoidalSkeleton:
    _expect(lines, "skeleton")
    cover_ref = _expect(lines, "cover")
    if not cover_ref:
        raise TextFormatError("cover line needs a label or file")
    cover = resolve_group(" ".join(cover_ref), base_dir)
    base_ref = _expect(lines, "base")
    if not base_ref:
        raise TextFormatError("base line needs a label or file")
    base = resolve_group(" ".join(base_ref), base_dir)
    grading_parts = _expect(lines, "grading")
    if len(grading_parts) != cover.order:
        raise TextFormatError(
            f"grading needs {cover.order} images, got {len(grading_parts)}")
    try:
        images = tuple(int(v) for v in grading_parts)
    except ValueError as exc:
        raise TextFormatError(f"bad grading image: {exc}") from exc
    try:
        grading = GroupHom(cover, base, images)
    except GroupFormatError as exc:
        raise TextFormatError(f"invalid grading: {exc}") from exc
    if _expect(lines, "associator"):
        raise TextFormatError("associator line takes no arguments")
    associator = read_cochain_lines(lines, base_dir, cover)
    if _expect(lines, "end"):
        raise TextFormatError("end line takes no arguments")
    try:
        return QuasiMonoidalSkeleton(cover, base, grading, associator)
    except CochainError as exc:
        raise TextFormatError(f"invalid skeleton: {exc}") from exc


def read_skeleton(path: str) -> QuasiMonoidalSkeleton:
    with open(path, "r", encoding="utf-8") as handle:
        return read_skeleton_lines(
            _Lines(handle), os.path.dirname(os.path.abspath(path)))


def write_skeleton(path: str, skeleton: QuasiMonoidalSkeleton) -> None:
    cover_ref = _group_reference(skeleton.cover, path, ".cover")
    base_ref = _group_reference(skeleton.base, path, ".base")
    lines = ["skeleton", f"cover {cover_ref}", f"base {base_ref}",
             "grading " + " ".join(str(v) for v in skeleton.grading.images),
             "associator",
             cochain_text(skeleton.associator, cover_ref).rstrip("\n"),
             "end"]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
