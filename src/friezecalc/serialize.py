"""JSON encodings and plain-text grid rendering.

Field elements are encoded as their canonical strings.  The documented
shapes are::

    field          {"kind": "rational"} | {"kind": "quadratic", "d": 5}
    matrix         {"field": ..., "n": 3, "entries": [["0","1",...], ...]}
    seed row       {"cycle": ["2"]} | {"table": {"start": -1, "values": [...]}}
    frieze seeds   {"field": ..., "x": <row>, "y": <row>}
    0-frieze seeds {"field": ..., "u": <row>, "v": <row>}
    two-row matrix {"field": ..., "rows": [["1","2"], ["3","4"]]}
    triangulation  {"k": 5, "diagonals": [[1,3],[1,4]]}

Malformed documents raise ValueError with a description of the offence.
"""

from __future__ import annotations

from .field import (
    RATIONAL,
    FieldDescriptor,
    FieldElement,
    _format_rows,
    format_element,
    parse_element,
)
from .matrix import FriezeMatrix, ValidationReport, Violation

TYPE_CHECKING = False  # true only for type checkers, so `typing` is never imported
if TYPE_CHECKING:  # the readers import the records when they build them
    from typing import Any

    from .classical import Triangulation, TwoRowMatrix
    from .frieze import FriezeSeeds, SeedRow

__all__ = [
    "field_from_json",
    "field_to_json",
    "frieze_seeds_from_json",
    "matrix_from_json",
    "matrix_to_json",
    "render_frieze_grid",
    "render_matrix_grid",
    "report_to_json",
    "triangulation_to_json",
    "two_row_from_json",
    "two_row_to_json",
    "zero_seeds_from_json",
]


def field_to_json(fd: FieldDescriptor) -> dict[str, Any]:
    if fd.is_rational:
        return {"kind": "rational"}
    return {"kind": "quadratic", "d": fd.d}


def field_from_json(obj: Any) -> FieldDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('field must be an object with a "kind"')
    kind = obj["kind"]
    if kind == "rational":
        return RATIONAL
    if kind == "quadratic":
        return FieldDescriptor(_integer(obj, "d", "quadratic field"))
    raise ValueError(f'unknown field kind {kind!r}')


def _integer(obj: dict[str, Any], key: str, where: str) -> int:
    """``obj[key]`` if it is a JSON integer; a bool or a float is bad input."""
    value = obj.get(key)
    if type(value) is not int:
        raise ValueError(f'{where} needs an integer "{key}"')
    return value


def _element(s: Any, fd: FieldDescriptor) -> FieldElement:
    """Parse one element of a document; a zero denominator is bad input."""
    try:
        return parse_element(str(s), fd)
    except ZeroDivisionError as exc:
        raise ValueError(f"element {str(s)!r} has a zero denominator") from exc


def matrix_to_json(m: FriezeMatrix) -> dict[str, Any]:
    return {
        "field": field_to_json(m.field),
        "n": m.n,
        "entries": _format_rows(m.rows()),
    }


def matrix_from_json(obj: Any) -> FriezeMatrix:
    if not isinstance(obj, dict):
        raise ValueError("matrix document must be an object")
    fd = field_from_json(obj.get("field", {"kind": "rational"}))
    entries = obj.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ValueError('matrix needs a non-empty "entries" array')
    n = _integer(obj, "n", "matrix") if "n" in obj else len(entries)
    if n != len(entries) or any(
        not isinstance(r, list) or len(r) != n for r in entries
    ):
        raise ValueError('"entries" must be an n x n array of strings')
    # Elements are immutable, so each distinct text is parsed once and its
    # element shared, as by the two entries of a symmetric pair.
    memo: dict[str, FieldElement] = {}

    def element(s: Any) -> FieldElement:
        text = str(s)
        x = memo.get(text)
        if x is None:
            x = memo[text] = _element(text, fd)
        return x

    return FriezeMatrix([[element(s) for s in row] for row in entries])


def _seed_row_from_json(obj: Any, fd: FieldDescriptor, name: str) -> SeedRow:
    from .frieze import SeedRow

    if isinstance(obj, dict) and "cycle" in obj:
        values = obj["cycle"]
        if not isinstance(values, list) or not values:
            raise ValueError(f'"{name}.cycle" must be a non-empty array')
        return SeedRow.cycle([_element(s, fd) for s in values])
    if isinstance(obj, dict) and "table" in obj:
        table = obj["table"]
        if (
            not isinstance(table, dict)
            or not isinstance(table.get("values"), list)
            or not table["values"]
        ):
            raise ValueError(f'"{name}.table" needs "start" and "values"')
        start = _integer(table, "start", f'"{name}.table"')
        return SeedRow.table(
            start, [_element(s, fd) for s in table["values"]]
        )
    raise ValueError(f'seed row "{name}" must carry "cycle" or "table"')


def _seed_pair_from_json(obj: Any, names: tuple[str, str]):
    """The field and the two seed rows ``names`` of a seed document."""
    if not isinstance(obj, dict):
        raise ValueError("seed document must be an object")
    fd = field_from_json(obj.get("field", {"kind": "rational"}))
    first, second = (_seed_row_from_json(obj.get(name), fd, name) for name in names)
    return first, second, fd


def frieze_seeds_from_json(obj: Any) -> FriezeSeeds:
    from .frieze import FriezeSeeds

    return FriezeSeeds(*_seed_pair_from_json(obj, ("x", "y")))


def zero_seeds_from_json(obj: Any) -> tuple[SeedRow, SeedRow, FieldDescriptor]:
    return _seed_pair_from_json(obj, ("u", "v"))


def two_row_to_json(x: TwoRowMatrix) -> dict[str, Any]:
    return {
        "field": field_to_json(x.field),
        "rows": [
            [format_element(v) for v in x.top],
            [format_element(v) for v in x.bottom],
        ],
    }


def two_row_from_json(obj: Any) -> TwoRowMatrix:
    from .classical import TwoRowMatrix

    if not isinstance(obj, dict):
        raise ValueError("two-row document must be an object")
    fd = field_from_json(obj.get("field", {"kind": "rational"}))
    rows = obj.get("rows")
    if (
        not isinstance(rows, list)
        or len(rows) != 2
        or any(not isinstance(r, list) for r in rows)
        or len(rows[0]) != len(rows[1])
    ):
        raise ValueError('"rows" must be two equally long arrays of strings')
    return TwoRowMatrix(
        tuple(_element(s, fd) for s in rows[0]),
        tuple(_element(s, fd) for s in rows[1]),
    )


def triangulation_to_json(t: Triangulation) -> dict[str, Any]:
    return {"k": t.k, "diagonals": [list(d) for d in sorted(t.diagonals)]}


def report_to_json(report: ValidationReport) -> dict[str, Any]:
    def violation(v: Violation) -> dict[str, Any]:
        return {
            "rule": v.rule,
            "indices": list(v.indices),
            "lhs": format_element(v.lhs),
            "rhs": format_element(v.rhs),
        }

    return {"ok": report.ok, "violations": [violation(v) for v in report.violations]}


def render_frieze_grid(rows: list[list[FieldElement]]) -> str:
    """Frieze layout of the rows of a frieze or 0-frieze window: row r is
    indented r half-cells."""
    cells = _format_rows(rows, compact=True)
    width = max((len(s) for row in cells for s in row), default=1) + 2
    half = width // 2 or 1
    return "\n".join(
        " " * (r * half) + "".join(s.center(width) for s in row).rstrip()
        for r, row in enumerate(cells)
    )


def render_matrix_grid(m: FriezeMatrix) -> str:
    """Aligned whitespace-separated table of compact entry strings."""
    cells = _format_rows(m.rows(), compact=True)
    width = max(len(s) for row in cells for s in row)
    return "\n".join(" ".join(s.rjust(width) for s in row) for row in cells)
