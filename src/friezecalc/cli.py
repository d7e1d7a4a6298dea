"""Command-line front end.

Machine-readable JSON goes to stdout, short human summaries to stderr.
Exit codes: 0 all checks passed, 1 a check failed (the JSON carries the
violation report), 2 usage or input/parse errors.  Randomized subcommands
take ``--seed`` (fixed default) and echo it in the output.

Each handler returns ``(output, ok, note)``: a JSON object or a text grid
for stdout, whether every check passed, and a stderr summary or None.
:func:`run` alone prints them and maps outcomes and errors to exit codes.

The frieze, 0-frieze and cc/bm handlers import the modules they call when
they run, so that a command loads only the code it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

from . import serialize
from .errors import FriezeError
from .field import _format_rows, format_element
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

TYPE_CHECKING = False  # true only for type checkers, so `typing` is never imported
if TYPE_CHECKING:
    import random
    from typing import Any

    from . import classical, zerofrieze
    from .frieze import InfiniteFrieze

    _Result = tuple[Any, bool, str | None]


def _read_json(path: str) -> Any:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _at_most(what: str, value: int, most: int) -> None:
    """Refuse a size the caps below do not admit (ValueError, exit 2)."""
    if value > most:
        raise ValueError(f"{what} must be at most {most}, got {value}")


def _load_matrix(path: str):
    doc = _read_json(path)
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if isinstance(entries, list):  # refused before any entry is parsed
        _at_most("matrix size n", len(entries), MAX_MATRIX_SIZE)
    return serialize.matrix_from_json(doc)


def _load_frieze(path: str) -> InfiniteFrieze:
    from .frieze import InfiniteFrieze

    return InfiniteFrieze(serialize.frieze_seeds_from_json(_read_json(path)))


def _load_zero(path: str) -> zerofrieze.ZeroFrieze:
    from .zerofrieze import ZeroFrieze

    return ZeroFrieze(*serialize.zero_seeds_from_json(_read_json(path)))


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
    out: dict[str, Any] = {"t": serialize.matrix_to_json(t)}
    ok = True
    if trace is not None:
        texts = _format_rows([row for stage in trace.matrices for row in stage])
        out["trace"] = {
            "steps": list(trace.steps),
            "matrices": [texts[k:k + m.n] for k in range(0, len(texts), m.n)],
        }
        out["trace_matches_closed_form"] = trace.matrices[-1] == t.rows()
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


def _entries(entry):
    """A row reader for :func:`_window` that reads each entry on its own."""
    return lambda d, lo, hi: [entry(i, i + d) for i in range(lo, hi)]


def _window(row, args, head: dict[str, Any], shift: int = 0) -> _Result:
    """Rows r = 0..rows-1, row(r + shift, start, start + cols) of the
    entries (i, i+r+shift), as a grid or as JSON after the keys in ``head``."""
    lo, hi = args.start, args.start + args.cols
    rows = [row(r + shift, lo, hi) for r in range(args.rows)]
    if args.grid:
        return serialize.render_frieze_grid(rows), True, None
    out = {
        **head,
        "col_start": args.start,
        "rows": _format_rows(rows),
    }
    return out, True, None


def _cmd_frieze_gen(args) -> _Result:
    f = _load_frieze(args.seeds)
    return _window(f.row, args, {"field": serialize.field_to_json(f.field)})


def _cmd_frieze_cone(args) -> _Result:
    from .frieze import cone_entries

    _at_most("cone extent j - i", args.j - args.i, MAX_EXTENT)
    f = _load_frieze(args.seeds)
    entries = cone_entries(f, args.i, args.j)
    [texts] = _format_rows([[v for _, v in entries]])
    out = {
        "i": args.i,
        "j": args.j,
        "entries": [{"x": x, "y": y, "value": t} for ((x, y), _), t in zip(entries, texts)],
    }
    return out, True, f"cone of ({args.i},{args.j}): {len(entries)} entries"


def _cmd_frieze_extract(args) -> _Result:
    from .frieze import extract_m_minus, extract_m_plus

    f = _load_frieze(args.seeds)
    if args.sign == "plus":
        m = extract_m_plus(f, args.k, args.n)
    else:
        m = extract_m_minus(f, args.k, args.n)
    out = serialize.render_matrix_grid(m) if args.grid else serialize.matrix_to_json(m)
    return out, True, f"extracted {args.n}x{args.n} matrix at k={args.k} ({args.sign})"


def _cmd_frieze_period(args) -> _Result:
    from .frieze import detect_period

    f = _load_frieze(args.seeds)
    period = detect_period(f, args.max, args.depth, args.start)
    out = {"max_period": args.max, "depth": args.depth, "period": period}
    return out, True, f"period: {period}"


def _cmd_zero_gen(args) -> _Result:
    return _window(_entries(_load_zero(args.seeds).entry), args, {}, shift=-1)


def _cmd_zero_from_frieze(args) -> _Result:
    from . import zerofrieze

    reach = max(abs(args.start), abs(args.start + args.cols)) + args.rows
    _at_most("window reach max(|start|, |start + cols|) + rows", reach, MAX_EXTENT)
    zf = zerofrieze.from_frieze(_load_frieze(args.seeds), args.k)
    return _window(_entries(zf.entry), args, {"k": args.k}, shift=-1)


def _cmd_zero_check(args) -> _Result:
    from . import zerofrieze

    if args.rows == 1 and args.cols > 1:
        raise ValueError("--rows must be at least 2 when --cols is more than 1: "
                         "the cells of the u row alone are not connected")
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


def _det_report(check, data, head: dict[str, Any], more) -> tuple[dict[str, Any], bool]:
    """``head``, ``more()`` and the three determinants of ``check(data)``,
    or ``head`` and the error that ``check`` raised."""
    try:
        report = check(data)
    except FriezeError as exc:
        return {**head, "ok": False, "error": str(exc)}, False
    out = {
        **head,
        **more(),
        "det": format_element(report.det),
        "det_oracle": format_element(report.det_oracle),
        "expected": format_element(report.expected),
        "ok": report.ok,
    }
    return out, report.ok


def _quiddity_report(q: classical.QuiddityData) -> tuple[dict[str, Any], bool]:
    from . import classical

    return _det_report(classical.cc_det_check, q, {"quiddity": list(q.a)}, lambda: {"k": q.k})


def _two_row_report(x: classical.TwoRowMatrix) -> tuple[dict[str, Any], bool]:
    from . import classical

    return _det_report(
        classical.baur_marsh_det_check, x, {"n": x.n},
        lambda: {"rows": serialize.two_row_to_json(x)["rows"]},
    )


def _cc_case(rng: random.Random, k: int) -> tuple[dict[str, Any], bool]:
    from . import classical, generators

    t = generators.random_triangulation(rng, k)
    out, ok = _quiddity_report(classical.quiddity_from_triangulation(t))
    out["triangulation"] = serialize.triangulation_to_json(t)["diagonals"]
    return out, ok


def _bm_case(rng: random.Random, n: int) -> tuple[dict[str, Any], bool]:
    from . import generators

    return _two_row_report(generators.random_two_row_matrix(rng, n))


def _random_checks(args, name: str, size: str, case) -> _Result:
    """``args.count`` seeded cases of ``case(rng, args.<size>)``."""
    import random

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
    from .classical import QuiddityData

    values = args.quiddity.split(",")
    _at_most("quiddity length", len(values), MAX_CASE_SIZE)
    q = QuiddityData(tuple(int(v) for v in values))
    out, ok = _quiddity_report(q)
    return out, ok, f"cc check {args.quiddity}: {'ok' if ok else 'FAILED'}"


def _cmd_cc_random(args) -> _Result:
    _at_most("count * (k + 12)^3", args.count * (args.k + 12) ** 3, MAX_CC_WORK)
    return _random_checks(args, "cc random", "k", _cc_case)


def _cmd_bm_check(args) -> _Result:
    x = serialize.two_row_from_json(_read_json(args.matrix))
    _at_most("two-row size n", x.n, MAX_TWO_ROW_CHECK)
    out, ok = _two_row_report(x)
    return out, ok, f"bm check: {'ok' if ok else 'FAILED'}"


def _cmd_bm_random(args) -> _Result:
    _at_most("count * (n + 12)^3", args.count * (args.n + 12) ** 3, MAX_BM_WORK)
    return _random_checks(args, "bm random", "n", _bm_case)


# ------------------------------------------------------------------- parser

# Caps on every size, so that a run at the cap ends in a few seconds.  A
# cc/bm case, an elimination check in its size k or n, takes time at most in
# proportion to (size + 12)^3 with its fixed costs, so `cc random` and `bm
# random` cap count * (size + 12)^3 too: 2 cases at k = 200, 50 at n = 20.
# A random 2 x n matrix with entries in [-9, 9] almost surely has two
# proportional columns once n is near 30, so `bm random` stops at 20.  The
# worst matrix document is one whose n^4/24 quadruples all fail Ptolemy.
# Frieze entries grow with their depth j - i, so the rows and columns of a
# window and the extent of the frieze cone a command reads are capped.
# `frieze period` reads about (max + depth) * depth cells when the last
# candidate is the period.
MAX_CASE_SIZE = 200
MAX_TWO_ROW_SIZE = 20
MAX_COUNT = 1000
MAX_CC_WORK = 2 * (MAX_CASE_SIZE + 12) ** 3
MAX_BM_WORK = 50 * (MAX_TWO_ROW_SIZE + 12) ** 3
MAX_MATRIX_SIZE = 24
MAX_TWO_ROW_CHECK = 40
MAX_WINDOW = 100
MAX_EXTENT = 200
MAX_PERIOD = 100


def _positive(text: str, most: int) -> int:
    """argparse type of a size or count: an int of at least 1 and at most ``most``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > most:
        raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
    return value


# Every argument of every command, declared once: name -> add_argument keywords.
# A name is the option string, or the option string and a variant after ":".
_OPTIONS: dict[str, dict[str, Any]] = {
    "matrix": {"help": "matrix JSON file (use - for stdin)"},
    "seeds": {"help": "0-frieze seed JSON file"},
    "--matrix": {"required": True, "help": "two-row JSON file"},
    "--seeds": {"required": True, "help": "seed JSON file"},
    "--quiddity": {"required": True, "help": "comma-separated positive integers"},
    "--ptolemy": {"action": "store_true", "help": "also check all quadruple relations"},
    "--method": {"choices": ["closed", "eliminate", "both"], "default": "both"},
    "--trace": {"action": "store_true", "help": "record every elimination stage"},
    "--check-props": {"action": "store_true", "dest": "check_props",
                      "help": "verify the structural identities of the result (they hold by "
                              "construction on the closed form; --trace can fail)"},
    **dict.fromkeys(["--i", "--j", "--k"], {"type": int, "required": True}),
    "--n": {"type": partial(_positive, most=MAX_EXTENT), "required": True,
            "help": f"matrix size, at most {MAX_EXTENT}"},
    **dict.fromkeys(["--rows", "--cols"],
                    {"type": partial(_positive, most=MAX_WINDOW), "required": True,
                     "help": f"at most {MAX_WINDOW}"}),
    **dict.fromkeys(["--max", "--depth"],
                    {"type": partial(_positive, most=MAX_PERIOD), "required": True,
                     "help": f"at most {MAX_PERIOD}"}),
    "--sign": {"choices": ["plus", "minus"], "required": True},
    "--start": {"type": int, "default": 0, "help": "first column index"},
    "--grid": {"action": "store_true", "help": "print a text grid instead of JSON"},
    "--json": {"dest": "grid", "action": "store_false", "help": "print JSON (the default)"},
    "--k:cc": {"type": partial(_positive, most=MAX_CASE_SIZE), "required": True,
               "help": f"size of each case, at most {MAX_CASE_SIZE}"},
    "--n:bm": {"type": partial(_positive, most=MAX_TWO_ROW_SIZE), "required": True,
               "help": f"size of each case, at most {MAX_TWO_ROW_SIZE}"},
    "--count": {"type": partial(_positive, most=MAX_COUNT), "required": True,
                "help": f"number of cases, at most {MAX_COUNT}"},
    "--seed": {"type": int, "default": DEFAULT_SEED},
}

# Every command: words -> (handler, help, arguments).  A command without a
# handler is a group of the commands named after it.  The arguments are
# names from _OPTIONS in help order; "a|b" makes a mutually exclusive pair,
# and "--rows=6" makes a required option optional with that default.
_COMMANDS: dict[str, tuple[Any, str, str]] = {
    "validate": (_cmd_validate, "check the frieze-matrix rules", "matrix --ptolemy"),
    "det": (_cmd_det, "determinant, closed form and/or elimination", "matrix --method"),
    "triangulate": (_cmd_triangulate, "upper triangular companion matrix",
                    "matrix --trace --check-props --grid"),
    "reconstruct": (_cmd_reconstruct, "recover an entry from the first two rows",
                    "matrix --i --j"),
    "frieze": (None, "infinite friezes with coefficients", ""),
    "frieze gen": (_cmd_frieze_gen, "evaluate and print rows of the frieze",
                   "--seeds --rows --cols --start --grid|--json"),
    "frieze cone": (_cmd_frieze_cone, "all entries of the cone of (i, j)", "--seeds --i --j"),
    "frieze extract": (_cmd_frieze_extract, "cut an n x n frieze matrix out of the frieze",
                       "--seeds --k --n --sign --grid|--json"),
    "frieze period": (_cmd_frieze_period, "smallest diagonal-shift period on a window",
                      "--seeds --max --depth --start"),
    "zerofrieze": (None, "0-frieze patterns", ""),
    "zerofrieze gen": (_cmd_zero_gen, "evaluate rows from u/v seed rows",
                       "--seeds --rows --cols --start --grid"),
    "zerofrieze from-frieze": (_cmd_zero_from_frieze, "derive the 0-frieze of a frieze at k",
                               "--seeds --k --rows --cols --start --grid"),
    "zerofrieze check": (_cmd_zero_check,
                         "zero-diamond and rank-1 checks on a window; both hold by construction "
                         "on seeds, so a failure is an engine fault, and exit 1 comes only from "
                         "a table seed read outside its window",
                         "seeds --rows=6 --cols=10 --start"),
    "cc": (None, "finite integer friezes from quiddity sequences", ""),
    "cc check": (_cmd_cc_check, "determinant check for one quiddity sequence", "--quiddity"),
    "cc random": (_cmd_cc_random, "determinant checks for random triangulations",
                  "--k:cc --count --seed"),
    "bm": (None, "matrices of 2x2 column minors", ""),
    "bm check": (_cmd_bm_check, "determinant check for one 2 x n matrix", "--matrix"),
    "bm random": (_cmd_bm_random, "determinant checks for random 2 x n matrices",
                  "--n:bm --count --seed"),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every command, built once per process: parsing
    leaves it unchanged, so every :func:`run` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="friezecalc",
        description="Exact frieze-matrix calculator and identity checker.",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for words, (handler, help, arguments) in _COMMANDS.items():
        group, _, name = words.rpartition(" ")
        p = groups[group].add_parser(name, help=help)
        if handler is None:
            groups[words] = p.add_subparsers(dest="subcommand", required=True)
            continue
        p.set_defaults(handler=handler)
        for argument in arguments.split():
            target = p.add_mutually_exclusive_group() if "|" in argument else p
            for option in argument.split("|"):
                option, _, default = option.partition("=")
                spec = dict(_OPTIONS[option])
                if default:
                    spec.update(required=False, default=int(default))
                target.add_argument(option.partition(":")[0], **spec)
    return parser


def _dumps(value: Any) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for values made of
    str, int, bool, None, lists, tuples and dicts with str keys; anything
    else, floats included, raises :class:`TypeError`.  The pieces go to one
    list, joined once.  A list of strings is quoted in one ``map`` and its
    text kept by (id, depth), so a row that several trace stages share is
    quoted once; ids stay unique while ``value`` holds every list.
    """
    quote = json.encoder.encode_basestring_ascii
    pieces: list[str] = []
    texts: dict[tuple[int, int], str] = {}

    def write(v, depth: int) -> None:
        if isinstance(v, str):
            pieces.append(quote(v))
        elif v is None or v is True or v is False:
            pieces.append("null" if v is None else "true" if v else "false")
        elif isinstance(v, int):
            pieces.append(int.__repr__(v))
        elif not isinstance(v, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
        elif not v:
            pieces.append("{}" if isinstance(v, dict) else "[]")
        else:
            inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
            if isinstance(v, dict):
                pieces.append("{")
                for k, (key, x) in enumerate(v.items()):
                    pieces.append(f"{',' if k else ''}{inner}{quote(key)}: ")
                    write(x, depth + 1)
                pieces.append(close + "}")
            elif (id(v), depth) in texts:
                pieces.append(texts[id(v), depth])
            else:
                try:
                    text = f"[{inner}{(',' + inner).join(map(quote, v))}{close}]"
                except TypeError:  # an item that is not a str
                    pieces.append("[")
                    for k, x in enumerate(v):
                        pieces.append("," + inner if k else inner)
                        write(x, depth + 1)
                    pieces.append(close + "]")
                else:
                    pieces.append(text)
                    texts[id(v), depth] = text

    write(value, 0)
    return "".join(pieces)


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
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
        sys.stdout.write(_dumps(out) + "\n")
    if note is not None:
        print(note, file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
