"""Command-line front end.

Machine-readable JSON goes to stdout, short human summaries to stderr.
Exit codes: 0 all checks passed, 1 a check failed (the JSON carries the
violation report), 2 usage or input/parse errors.  Randomized subcommands
take ``--seed`` (fixed default) and echo it in the output.

Each handler returns ``(output, ok, note)``: a JSON object or a text grid
for stdout, whether every check passed, and a stderr summary or None.
:func:`run` alone prints them and maps outcomes and errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any

from . import classical, generators, serialize, zerofrieze
from .errors import FriezeError
from .field import format_element
from .frieze import (
    ConeSpec,
    InfiniteFrieze,
    cone_entries,
    detect_period,
    extract_m_minus,
    extract_m_plus,
)
from .matrix import (
    check_ptolemy,
    check_t_properties,
    det_closed_form,
    det_elimination,
    reconstruct_entry,
    triangulate,
    validate,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_SEED = 0

_Result = tuple[Any, bool, "str | None"]


def _read_json(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_matrix(path: str):
    return serialize.matrix_from_json(_read_json(path))


def _load_frieze(path: str) -> InfiniteFrieze:
    return InfiniteFrieze(serialize.frieze_seeds_from_json(_read_json(path)))


def _load_zero(path: str) -> zerofrieze.ZeroFrieze:
    u, v, fd = serialize.zero_seeds_from_json(_read_json(path))
    return zerofrieze.ZeroFrieze(u, v, fd)


# ---------------------------------------------------------------- matrix ops


def _cmd_validate(args) -> _Result:
    m = _load_matrix(args.matrix)
    out = serialize.report_to_json(validate(m))
    if args.ptolemy:
        ptolemy = check_ptolemy(m)
        out["ptolemy"] = serialize.report_to_json(ptolemy)
        out["ok"] = out["ok"] and ptolemy.ok
    if out["ok"]:
        return out, True, "validate: ok"
    violations = out["violations"] + out.get("ptolemy", {}).get("violations", [])
    first = violations[0]
    return out, False, (
        f"validate: {len(violations)} violation(s), first: {first['rule']} at "
        f"{tuple(first['indices'])}: {first['lhs']} != {first['rhs']}"
    )


def _cmd_det(args) -> _Result:
    m = _load_matrix(args.matrix)
    if args.method != "eliminate":
        report = validate(m)
        if not report.ok:
            error = "closed-form determinant needs a valid frieze matrix"
            violations = serialize.report_to_json(report)["violations"]
            failed = {"ok": False, "error": error, "violations": violations}
            return failed, False, "det: input failed validation"
    out: dict[str, Any] = {"n": m.n, "method": args.method}
    if args.method == "both":
        closed = det_closed_form(m)
        elim = det_elimination(m)
        out["closed"] = format_element(closed)
        out["elimination"] = format_element(elim)
        out["equal"] = closed == elim
        return out, out["equal"], f"det: {out['closed']} (both methods agree: {out['equal']})"
    det = det_closed_form(m) if args.method == "closed" else det_elimination(m)
    out["det"] = format_element(det)
    return out, True, f"det: {out['det']}"


def _cmd_triangulate(args) -> _Result:
    m = _load_matrix(args.matrix)
    report = validate(m)
    if not report.ok:
        return serialize.report_to_json(report), False, "triangulate: input failed validation"
    t, trace = triangulate(m, keep_trace=args.trace)
    out: dict[str, Any] = {"t": serialize.triangular_to_json(t)}
    ok = True
    if trace is not None:
        out["trace"] = {
            "steps": list(trace.steps),
            "matrices": [
                [[format_element(e) for e in row] for row in stage]
                for stage in trace.matrices
            ],
        }
        out["trace_matches_closed_form"] = trace.matrices[-1] == t.rows
        ok = out["trace_matches_closed_form"]
    if args.check_props:
        props = check_t_properties(t, m)
        out["properties"] = serialize.report_to_json(props)
        ok = ok and props.ok
    if args.grid:
        out = serialize.render_matrix_grid(t)
    return out, ok, "triangulate: ok" if ok else "triangulate: check failed"


def _cmd_reconstruct(args) -> _Result:
    m = _load_matrix(args.matrix)
    value = reconstruct_entry(m, args.i, args.j)
    stored = m.entry(args.i, args.j)
    out = {
        "i": args.i,
        "j": args.j,
        "reconstructed": format_element(value),
        "stored": format_element(stored),
        "equal": value == stored,
    }
    return out, out["equal"], f"reconstruct ({args.i},{args.j}): {out['reconstructed']}"


# ------------------------------------------------------- frieze and 0-frieze


def _window(entry, args, head: dict[str, Any], shift: int = 0) -> _Result:
    """Rows r = 0..rows-1 of entry(i, i+r+shift), i in [start, start+cols),
    as a grid or as JSON after the keys in ``head``."""
    columns = range(args.start, args.start + args.cols)
    rows = [[entry(i, i + r + shift) for i in columns] for r in range(args.rows)]
    if args.grid:
        return serialize.render_frieze_grid(rows), True, None
    out = {
        **head,
        "col_start": args.start,
        "rows": [[format_element(e) for e in row] for row in rows],
    }
    return out, True, None


def _cmd_frieze_gen(args) -> _Result:
    f = _load_frieze(args.seeds)
    return _window(f.entry, args, {"field": serialize.field_to_json(f.field)})


def _cmd_frieze_cone(args) -> _Result:
    f = _load_frieze(args.seeds)
    entries = cone_entries(f, ConeSpec(args.i, args.j))
    out = {
        "i": args.i,
        "j": args.j,
        "entries": [
            {"x": x, "y": y, "value": format_element(v)} for (x, y), v in entries
        ],
    }
    return out, True, f"cone of ({args.i},{args.j}): {len(entries)} entries"


def _cmd_frieze_extract(args) -> _Result:
    f = _load_frieze(args.seeds)
    if args.sign == "plus":
        m = extract_m_plus(f, args.k, args.n)
    else:
        m = extract_m_minus(f, args.k, args.n)
    out = serialize.render_matrix_grid(m) if args.grid else serialize.matrix_to_json(m)
    return out, True, f"extracted {args.n}x{args.n} matrix at k={args.k} ({args.sign})"


def _cmd_frieze_period(args) -> _Result:
    f = _load_frieze(args.seeds)
    period = detect_period(f, args.max, args.depth, args.start)
    out = {"max_period": args.max, "depth": args.depth, "period": period}
    return out, True, f"period: {period}"


def _cmd_zero_gen(args) -> _Result:
    return _window(_load_zero(args.seeds).entry, args, {}, shift=-1)


def _cmd_zero_from_frieze(args) -> _Result:
    zf = zerofrieze.from_frieze(_load_frieze(args.seeds), args.k)
    return _window(zf.entry, args, {"k": args.k}, shift=-1)


def _cmd_zero_check(args) -> _Result:
    zf = _load_zero(args.seeds)
    cells = zerofrieze.window_cells(zf, args.start, args.cols, args.rows)
    report = zerofrieze.check_zero_diamond(cells)
    out = serialize.report_to_json(report)
    try:
        a, b = zerofrieze.rank1_factorize(cells)
        out["rank1"] = {
            "ok": True,
            "a": {str(i): format_element(v) for i, v in sorted(a.items())},
            "b": {str(j): format_element(v) for j, v in sorted(b.items())},
        }
    except FriezeError as exc:
        out["rank1"] = {"ok": False, "error": str(exc)}
        out["ok"] = False
    return out, out["ok"], "zerofrieze check: ok" if out["ok"] else "zerofrieze check: failed"


# -------------------------------------------------------------- cc / bm ops


def _quiddity_report(q: classical.QuiddityData) -> tuple[dict[str, Any], bool]:
    try:
        report = classical.cc_det_check(q)
    except FriezeError as exc:
        return {"quiddity": list(q.a), "ok": False, "error": str(exc)}, False
    out = {
        "quiddity": list(q.a),
        "k": q.k,
        "det": format_element(report.det),
        "det_oracle": format_element(report.det_oracle),
        "expected": format_element(report.expected),
        "ok": report.ok,
    }
    return out, report.ok


def _two_row_report(x: classical.TwoRowMatrix) -> tuple[dict[str, Any], bool]:
    try:
        report = classical.baur_marsh_det_check(x)
    except FriezeError as exc:
        return {"n": x.n, "ok": False, "error": str(exc)}, False
    out = {
        "n": x.n,
        "rows": serialize.two_row_to_json(x)["rows"],
        "det": format_element(report.det),
        "det_oracle": format_element(report.det_oracle),
        "expected": format_element(report.expected),
        "ok": report.ok,
    }
    return out, report.ok


def _cc_case(rng: random.Random, k: int) -> tuple[dict[str, Any], bool]:
    t = generators.random_triangulation(rng, k)
    out, ok = _quiddity_report(classical.quiddity_from_triangulation(t))
    out["triangulation"] = serialize.triangulation_to_json(t)["diagonals"]
    return out, ok


def _bm_case(rng: random.Random, n: int) -> tuple[dict[str, Any], bool]:
    return _two_row_report(generators.random_two_row_matrix(rng, n))


def _random_checks(args, name: str, size: str, case) -> _Result:
    """``args.count`` seeded cases of ``case(rng, args.<size>)``."""
    rng = random.Random(args.seed)
    value = getattr(args, size)
    reports = [case(rng, value) for _ in range(args.count)]
    ok = all(case_ok for _, case_ok in reports)
    out = {
        "seed": args.seed,
        size: value,
        "count": args.count,
        "ok": ok,
        "cases": [report for report, _ in reports],
    }
    return out, ok, f"{name}: {args.count} cases at {size}={value}: {'ok' if ok else 'FAILED'}"


def _cmd_cc_check(args) -> _Result:
    q = classical.QuiddityData(tuple(int(v) for v in args.quiddity.split(",")))
    out, ok = _quiddity_report(q)
    return out, ok, f"cc check {args.quiddity}: {'ok' if ok else 'FAILED'}"


def _cmd_cc_random(args) -> _Result:
    return _random_checks(args, "cc random", "k", _cc_case)


def _cmd_bm_check(args) -> _Result:
    out, ok = _two_row_report(serialize.two_row_from_json(_read_json(args.matrix)))
    return out, ok, f"bm check: {'ok' if ok else 'FAILED'}"


def _cmd_bm_random(args) -> _Result:
    return _random_checks(args, "bm random", "n", _bm_case)


# ------------------------------------------------------------------- parser

# Options that several subcommands share; each is declared only here.
_OPTIONS: dict[str, dict[str, Any]] = {
    "--seeds": {"required": True, "help": "seed JSON file"},
    "--rows": {"type": int, "required": True},
    "--cols": {"type": int, "required": True},
    "--start": {"type": int, "default": 0, "help": "first column index"},
    "--grid": {"action": "store_true", "help": "print a text grid instead of JSON"},
    "--json": {"dest": "grid", "action": "store_false", "help": "print JSON (the default)"},
    "--count": {"type": int, "required": True},
    "--seed": {"type": int, "default": DEFAULT_SEED},
}


def _add_options(p, *names: str, **defaults: int) -> None:
    """Add shared options to ``p``; a keyword default makes a required one optional."""
    for name in names:
        spec = dict(_OPTIONS[name])
        if name[2:] in defaults:
            spec.update(required=False, default=defaults[name[2:]])
        p.add_argument(name, **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friezecalc",
        description="Exact frieze-matrix calculator and identity checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name: str, handler, help: str):
        p = group.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command(sub, "validate", _cmd_validate, "check the frieze-matrix rules")
    p.add_argument("matrix", help="matrix JSON file (use - for stdin)")
    p.add_argument("--ptolemy", action="store_true", help="also check all quadruple relations")

    p = command(sub, "det", _cmd_det, "determinant, closed form and/or elimination")
    p.add_argument("matrix")
    p.add_argument("--method", choices=["closed", "eliminate", "both"], default="both")

    p = command(sub, "triangulate", _cmd_triangulate, "upper triangular companion matrix")
    p.add_argument("matrix")
    p.add_argument("--trace", action="store_true", help="record every elimination stage")
    p.add_argument("--check-props", action="store_true", dest="check_props",
                   help="verify the structural identities of the result")
    _add_options(p, "--grid")

    p = command(sub, "reconstruct", _cmd_reconstruct, "recover an entry from the first two rows")
    p.add_argument("matrix")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    fsub = sub.add_parser("frieze", help="infinite friezes with coefficients").add_subparsers(
        dest="subcommand", required=True
    )

    p = command(fsub, "gen", _cmd_frieze_gen, "evaluate and print rows of the frieze")
    _add_options(p, "--seeds", "--rows", "--cols", "--start")
    _add_options(p.add_mutually_exclusive_group(), "--grid", "--json")

    p = command(fsub, "cone", _cmd_frieze_cone, "all entries of the cone of (i, j)")
    _add_options(p, "--seeds")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    p = command(fsub, "extract", _cmd_frieze_extract, "cut an n x n frieze matrix out of the frieze")
    _add_options(p, "--seeds")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sign", choices=["plus", "minus"], required=True)
    _add_options(p.add_mutually_exclusive_group(), "--grid", "--json")

    p = command(fsub, "period", _cmd_frieze_period, "smallest diagonal-shift period on a window")
    _add_options(p, "--seeds")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    _add_options(p, "--start")

    zsub = sub.add_parser("zerofrieze", help="0-frieze patterns").add_subparsers(
        dest="subcommand", required=True
    )

    p = command(zsub, "gen", _cmd_zero_gen, "evaluate rows from u/v seed rows")
    _add_options(p, "--seeds", "--rows", "--cols", "--start", "--grid")

    p = command(zsub, "from-frieze", _cmd_zero_from_frieze, "derive the 0-frieze of a frieze at k")
    _add_options(p, "--seeds")
    p.add_argument("--k", type=int, required=True)
    _add_options(p, "--rows", "--cols", "--start", "--grid")

    p = command(zsub, "check", _cmd_zero_check, "zero-diamond and rank-1 checks on a window")
    p.add_argument("seeds", help="0-frieze seed JSON file")
    _add_options(p, "--rows", "--cols", "--start", rows=6, cols=10)

    csub = sub.add_parser("cc", help="finite integer friezes from quiddity sequences").add_subparsers(
        dest="subcommand", required=True
    )

    p = command(csub, "check", _cmd_cc_check, "determinant check for one quiddity sequence")
    p.add_argument("--quiddity", required=True, help="comma-separated positive integers")

    p = command(csub, "random", _cmd_cc_random, "determinant checks for random triangulations")
    p.add_argument("--k", type=int, required=True)
    _add_options(p, "--count", "--seed")

    bsub = sub.add_parser("bm", help="matrices of 2x2 column minors").add_subparsers(
        dest="subcommand", required=True
    )

    p = command(bsub, "check", _cmd_bm_check, "determinant check for one 2 x n matrix")
    p.add_argument("--matrix", required=True, help="two-row JSON file")

    p = command(bsub, "random", _cmd_bm_random, "determinant checks for random 2 x n matrices")
    p.add_argument("--n", type=int, required=True)
    _add_options(p, "--count", "--seed")

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        out, ok, note = args.handler(args)
    except FriezeError as exc:
        out, ok, note = {"ok": False, "error": str(exc)}, False, f"check failed: {exc}"
    except ZeroDivisionError as exc:
        out, ok, note = (
            {"ok": False, "error": f"division by zero: {exc}"}, False, f"check failed: {exc}"
        )
    except (OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(out, str):
        print(out)
    else:
        json.dump(out, sys.stdout, indent=2)
        sys.stdout.write("\n")
    if note is not None:
        print(note, file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
