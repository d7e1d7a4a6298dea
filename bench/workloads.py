"""Workloads of the friezecalc benchmark: inputs, cases and output checks.

Every workload is a fixed *universe* of members.  A member is one or more
input documents plus the CLI cases (one ``argv`` each) that run on them.
Each member is drawn by this module's own ``random.Random`` keyed by the
member's name, and turned into documents only through public friezecalc
constructors, so the universe never depends on ``friezecalc.generators``.
The output of every case in every universe was recorded once, in
``golden/<workload>.json``, together with a digest of each member's inputs.

A run draws its pool from the universe with ``random.Random(seed)``: a fixed
number of members from every stratum (a stratum fixes the command mix, the
field and the size), in a seed-dependent order.  Stratified pools keep the
cost of a round nearly the same for every seed, and a universe that is
recorded in full means the output of any seed's cases can be checked
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from friezecalc import serialize
from friezecalc.errors import FriezeError
from friezecalc.field import RATIONAL, FieldDescriptor, format_element
from friezecalc.matrix import SeedData, build_from_seeds

Q5 = FieldDescriptor(5)
FIELDS = {"q": RATIONAL, "s5": Q5}


@dataclass(frozen=True)
class Case:
    """One CLI invocation and the semantic check its output must pass."""

    argv: tuple[str, ...]
    check: tuple = ()  # (kind, *params); () = checked against the record only
    stdin: str | None = None  # document fed on standard input

    @property
    def key(self) -> str:
        return " ".join(self.argv) + (f" < {self.stdin}" if self.stdin else "")


@dataclass
class Member:
    key: str
    docs: dict[str, str] = field(default_factory=dict)
    cases: list[Case] = field(default_factory=list)

    def digest(self) -> str:
        blob = json.dumps(
            [sorted(self.docs.items()), [c.key for c in self.cases]],
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Stratum:
    name: str
    size: int  # members in the universe
    pick: int  # members drawn for one pool
    make: Callable[[random.Random, str], Member]


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[Stratum, ...]
    cold: bool = False  # cases run as fresh `python -m friezecalc` processes


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _rat(rng: random.Random, max_num: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def _element(rng: random.Random, fd: FieldDescriptor):
    """Nonzero element; half of the Q(sqrt 5) draws carry a sqrt part."""
    while True:
        b = _rat(rng, 3, 2) if not fd.is_rational and rng.random() < 0.5 else 0
        el = fd.element(_rat(rng, 9, 4), b)
        if not el.is_zero:
            return el


def _positive(rng: random.Random, fd: FieldDescriptor):
    """Element whose real value is positive: a > 0 and b >= 0."""
    a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    b = Fraction(rng.randint(0, 2), rng.randint(1, 2)) if not fd.is_rational else 0
    return fd.element(a, b)


def _strings(values) -> list[str]:
    return [format_element(v) for v in values]


# ------------------------------------------------------------ matrix_checks


def _frieze_matrix(rng: random.Random, fd: FieldDescriptor, n: int):
    while True:
        x = [_element(rng, fd) for _ in range(n - 1)]
        y = [_element(rng, fd) for _ in range(n - 2)]
        try:
            return build_from_seeds(SeedData(tuple(x), tuple(y)), fd)
        except (FriezeError, ZeroDivisionError):
            continue  # a zero entry or divisor: draw again


def _matrix_member(fkey: str, n: int, corrupt: bool):
    fd = FIELDS[fkey]

    def make(rng: random.Random, key: str) -> Member:
        m = _frieze_matrix(rng, fd, n)
        doc = serialize.matrix_to_json(m)
        path = f"docs/{key}.json"
        ri = rng.randint(3, n)
        rj = rng.randint(ri, n)
        reconstruct = Case(
            ("reconstruct", path, "--i", str(ri), "--j", str(rj)),
            () if corrupt else ("equal",),
        )
        if corrupt:
            # One symmetric off-diagonal pair changes; symmetry still holds.
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            bad = format_element(m.entry(i, j) + _element(rng, fd))
            doc["entries"][i - 1][j - 1] = doc["entries"][j - 1][i - 1] = bad
            checks = [("violation_at", i, j)] * 3
        else:
            checks = [("ok",), ("equal",), ("trace_ok",)]
        cases = [
            Case(("validate", path, "--ptolemy"), checks[0]),
            Case(("det", path, "--method", "both"), checks[1]),
            Case(("triangulate", path, "--trace", "--check-props"), checks[2]),
            reconstruct,
        ]
        return Member(key, {path: _dump(doc)}, cases)

    return make


def _matrix_strata() -> tuple[Stratum, ...]:
    out = []
    for fkey in FIELDS:
        for n in (8, 12, 16, 20):
            out.append(Stratum(f"{fkey}-n{n}", 12, 3, _matrix_member(fkey, n, False)))
            out.append(Stratum(f"{fkey}-n{n}-bad", 4, 1, _matrix_member(fkey, n, True)))
    return tuple(out)


# ------------------------------------------------------------------- cc_det


def _quiddity(rng: random.Random, k: int) -> list[int]:
    """Quiddity of a random triangulation of a k-gon by recursive splitting:
    a_v is 1 plus the number of diagonals at vertex v."""
    a = [1] * (k + 1)
    stack = [list(range(1, k + 1))]
    while stack:
        vs = stack.pop()
        if len(vs) < 3:
            continue
        apex = rng.randrange(1, len(vs) - 1)
        for lo, hi in ((0, apex), (apex, len(vs) - 1)):
            if hi - lo >= 2:
                a[vs[lo]] += 1
                a[vs[hi]] += 1
        stack.append(vs[: apex + 1])
        stack.append(vs[apex:])
    return a[1:]


def _cc_member(k: int):
    def make(rng: random.Random, key: str) -> Member:
        q = ",".join(map(str, _quiddity(rng, k)))
        return Member(key, {}, [Case(("cc", "check", "--quiddity", q), ("det_triple",))])

    return make


def _bm_member(n: int):
    def make(rng: random.Random, key: str) -> Member:
        while True:
            top = [rng.randint(-30, 30) for _ in range(n)]
            bot = [rng.randint(-30, 30) for _ in range(n)]
            if all(
                top[i] * bot[j] != top[j] * bot[i]
                for i in range(n)
                for j in range(i + 1, n)
            ):
                break
        path = f"docs/{key}.json"
        doc = {
            "field": serialize.field_to_json(RATIONAL),
            "rows": [[str(v) for v in top], [str(v) for v in bot]],
        }
        case = Case(("bm", "check", "--matrix", path), ("det_triple",))
        return Member(key, {path: _dump(doc)}, [case])

    return make


def _cc_strata() -> tuple[Stratum, ...]:
    cc = [Stratum(f"cc-k{k}", 16, 4, _cc_member(k)) for k in (10, 15, 20, 25, 30, 35, 40, 44)]
    bm = [Stratum(f"bm-n{n}", 16, 4, _bm_member(n)) for n in (6, 8, 10, 12, 14, 16, 18, 20)]
    return tuple(cc + bm)


# ----------------------------------------------------------- frieze_windows

# (rows, cols) of the three window tiers.  Sizes are fixed so that only the
# seed values vary from member to member.
TIERS = {"s": (12, 16), "m": (30, 34), "l": (52, 56)}


def _frieze_doc(rng: random.Random, fd: FieldDescriptor, length: int, table_start):
    """Seeds with positive real values and y_i >= x_i + x_{i+1}.

    Along every row the frieze then obeys a three-term recurrence that keeps
    its entries positive and growing, so no entry is ever zero.
    """
    x = [_positive(rng, fd) for _ in range(length + 1)]
    if table_start is None:
        x[length] = x[0]
    y = [x[i] + x[i + 1] + _positive(rng, fd) for i in range(length)]
    x = x[:length]
    if table_start is None:
        rows = {"x": {"cycle": _strings(x)}, "y": {"cycle": _strings(y)}}
    else:
        rows = {
            name: {"table": {"start": table_start, "values": _strings(vals)}}
            for name, vals in (("x", x), ("y", y))
        }
    return {"field": serialize.field_to_json(fd), **rows}


def _cycle_member(fkey: str, tier: str):
    fd = FIELDS[fkey]

    def make(rng: random.Random, key: str) -> Member:
        p = rng.randint(1, 4)
        path = f"docs/{key}.json"
        doc = _frieze_doc(rng, fd, p, None)
        rows, cols = TIERS[tier]
        start = rng.randint(-5, 5)
        k = rng.randint(-5, 5)
        n = rows // 2
        s = ("--seeds", path)
        cases = [
            Case(("frieze", "gen", *s, "--rows", str(rows), "--cols", str(cols),
                  "--start", str(start)), ("rows", rows, cols)),
            Case(("frieze", "gen", *s, "--rows", str(cols), "--cols", str(rows),
                  "--grid"), ("grid", cols)),
            Case(("frieze", "extract", *s, "--k", str(k), "--n", str(n),
                  "--sign", "plus"), ("matrix", n)),
            Case(("frieze", "extract", *s, "--k", str(k), "--n", str(n),
                  "--sign", "minus", "--grid"), ("grid", n)),
            Case(("frieze", "cone", *s, "--i", str(start), "--j", str(start + rows)),
                 ("cone", rows)),
            Case(("frieze", "period", *s, "--max", str(p + 2), "--depth", str(rows // 3)),
                 ("period", p)),
            Case(("zerofrieze", "from-frieze", *s, "--k", str(k), "--rows",
                  str(rows // 2), "--cols", str(cols // 2)), ("rows", rows // 2, cols // 2)),
        ]
        return Member(key, {path: _dump(doc)}, cases)

    return make


def _table_member(fkey: str, tier: str):
    fd = FIELDS[fkey]

    def make(rng: random.Random, key: str) -> Member:
        rows, cols = TIERS[tier]
        # `frieze gen --rows R --cols C --start s` reads x and y at indices
        # s .. s+R+C-3, so a window of R+C-2 values fits it exactly and
        # starting one column later reads one value past the window.
        width = rows + cols - 2
        s0 = rng.randint(-5, 0)
        path = f"docs/{key}.json"
        doc = _frieze_doc(rng, fd, width, s0)
        n = rows // 2
        s = ("--seeds", path)
        size = ("--rows", str(rows), "--cols", str(cols))
        cases = [
            Case(("frieze", "gen", *s, *size, "--start", str(s0)), ("rows", rows, cols)),
            Case(("frieze", "gen", *s, *size, "--start", str(s0 + 1), "--grid"),
                 ("window",)),
            Case(("frieze", "extract", *s, "--k", str(s0), "--n", str(n), "--sign", "plus"),
                 ("matrix", n)),
            Case(("frieze", "cone", *s, "--i", str(s0), "--j", str(s0 + width + 1)),
                 ("window",)),
        ]
        return Member(key, {path: _dump(doc)}, cases)

    return make


def _zero_member(fkey: str, tier: str):
    fd = FIELDS[fkey]

    def make(rng: random.Random, key: str) -> Member:
        u = [_element(rng, fd) for _ in range(2)]
        v = [_element(rng, fd) for _ in range(3)]
        path = f"docs/{key}.json"
        doc = {
            "field": serialize.field_to_json(fd),
            "u": {"cycle": _strings(u)},
            "v": {"cycle": _strings(v)},
        }
        rows, cols = TIERS[tier]
        start = rng.randint(-5, 5)
        s = ("--seeds", path)
        window = ("--rows", str(rows), "--cols", str(cols), "--start", str(start))
        cases = [
            Case(("zerofrieze", "gen", *s, *window), ("rows", rows, cols)),
            Case(("zerofrieze", "gen", *s, *window, "--grid"), ("grid", rows)),
            Case(("zerofrieze", "check", path, *window), ("rank1",)),
        ]
        return Member(key, {path: _dump(doc)}, cases)

    return make


def _frieze_strata() -> tuple[Stratum, ...]:
    # Many small windows and one large one per stratum: the median then falls
    # among many similar cases and the round stays short.
    picks = {"s": 6, "m": 3, "l": 1}
    out = []
    for tier in TIERS:
        for fkey in FIELDS:
            for kind, make in (("cyc", _cycle_member), ("tab", _table_member),
                               ("zero", _zero_member)):
                out.append(Stratum(f"{kind}-{fkey}-{tier}", 8, picks[tier], make(fkey, tier)))
    return tuple(out)


# ----------------------------------------------------------------- cli_cold

# The documents the README's commands read, as they stand in tests/fixtures.
_EXM = [
    ["0", "1", "2", "2", "-1", None],
    ["1", "0", "-2", "1", "1/2", None],
    ["2", "-2", "0", "6", "-1", None],
    ["2", "1", "6", "0", "2", "sqrt(5)"],
    ["-1", "1/2", "-1", "2", "0", "1"],
    [None, None, None, "sqrt(5)", "1", "0"],
]


def _exm(corner: tuple[str, str, str]) -> dict:
    entries = [list(r) for r in _EXM]
    for i, v in enumerate(corner):
        entries[i][5] = entries[5][i] = v
    return {"field": {"kind": "quadratic", "d": 5}, "n": 6, "entries": entries}


README_DOCS = {
    "tests/fixtures/const23_seeds.json": {
        "field": {"kind": "rational"}, "x": {"cycle": ["2"]}, "y": {"cycle": ["3"]},
    },
    "tests/fixtures/exm_as_printed.json": _exm(
        ("5 - 1/2*sqrt(5)", "-7/2 + 1/4*sqrt(5)", "3 - 1/2*sqrt(5)")
    ),
    "tests/fixtures/exm_corrected.json": _exm(
        ("-1 - 1/2*sqrt(5)", "-1/2 + 1/4*sqrt(5)", "-3 - 1/2*sqrt(5)")
    ),
    "tests/fixtures/figure_frieze_seeds.json": {
        "field": {"kind": "quadratic", "d": 5},
        "x": {"table": {"start": -1, "values": ["2", "1", "-2", "6", "2", "1"]}},
        "y": {"table": {"start": -1, "values": ["3", "2", "1", "-1", "sqrt(5)", "2"]}},
    },
    "tests/fixtures/two_row_123_456.json": {
        "field": {"kind": "rational"}, "rows": [["1", "2", "3"], ["4", "5", "6"]],
    },
    "tests/fixtures/zerofrieze_example_seeds.json": {
        "field": {"kind": "rational"},
        "u": {"cycle": ["-4"]},
        "v": {"table": {"start": -2, "values": [
            "-11/3", "-3/5", "-5/3", "-3", "2", "-3", "-5/3"]}},
    },
}

_FIX = "tests/fixtures/"
_CORR = _FIX + "exm_corrected.json"
_C23 = ("--seeds", _FIX + "const23_seeds.json")
_FIG = ("--seeds", _FIX + "figure_frieze_seeds.json")
_PIPED = "stdin/extract_k0_n6.json"

README_CASES = [
    Case(("validate", _CORR), ("ok",)),
    Case(("validate", _FIX + "exm_as_printed.json"), ("violation_at", 3, 5)),
    Case(("det", _CORR, "--method", "both"), ("equal",)),
    Case(("triangulate", _CORR, "--trace", "--check-props"), ("trace_ok",)),
    Case(("reconstruct", _CORR, "--i", "3", "--j", "4"), ("equal",)),
    Case(("frieze", "gen", *_C23, "--rows", "6", "--cols", "6", "--grid"), ("grid", 6)),
    Case(("frieze", "cone", *_C23, "--i", "0", "--j", "3"), ("cone", 3)),
    Case(("frieze", "extract", *_FIG, "--k", "2", "--n", "3", "--sign", "plus"), ("matrix", 3)),
    Case(("frieze", "period", *_C23, "--max", "4", "--depth", "5"), ("period", 1)),
    Case(("frieze", "extract", *_FIG, "--k", "0", "--n", "6", "--sign", "plus", "--json"),
         ("matrix", 6)),
    Case(("det", "-", "--method", "both"), ("equal",), stdin=_PIPED),
    Case(("zerofrieze", "gen", "--seeds", _FIX + "zerofrieze_example_seeds.json",
          "--rows", "5", "--cols", "3", "--start", "-1", "--grid"), ("grid", 5)),
    Case(("zerofrieze", "from-frieze", *_C23, "--k", "0", "--rows", "5", "--cols", "6"),
         ("rows", 5, 6)),
    Case(("zerofrieze", "check", _FIX + "zerofrieze_example_seeds.json",
          "--rows", "5", "--cols", "3", "--start", "-2"), ("rank1",)),
    Case(("cc", "check", "--quiddity", "1,2,1,2"), ("det_triple",)),
    Case(("cc", "random", "--k", "8", "--count", "25", "--seed", "7"), ("all_ok",)),
    Case(("bm", "check", "--matrix", _FIX + "two_row_123_456.json"), ("det_triple",)),
    Case(("bm", "random", "--n", "6", "--count", "25"), ("all_ok",)),
]


def _readme_member(rng: random.Random, key: str) -> Member:
    docs = {path: json.dumps(doc, indent=2) for path, doc in README_DOCS.items()}
    # `frieze extract --k 0 --n 6 --sign plus --json` on the figure frieze
    # prints the corrected example matrix; the README pipes it into `det -`.
    docs[_PIPED] = docs[_CORR] + "\n"
    return Member(key, docs, list(README_CASES))


# ---------------------------------------------------------------- registry

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("matrix_checks", _matrix_strata()),
        Workload("cc_det", _cc_strata()),
        Workload("frieze_windows", _frieze_strata()),
        Workload("cli_cold", (Stratum("readme", 1, 1, _readme_member),), cold=True),
    )
}


def make_member(workload: Workload, stratum: Stratum, index: int) -> Member:
    key = f"{stratum.name}-{index:02d}"
    return stratum.make(random.Random(f"{workload.name}/{key}"), key)


def universe(workload: Workload):
    for stratum in workload.strata:
        for index in range(stratum.size):
            yield make_member(workload, stratum, index)


def pool(workload: Workload, seed: int) -> tuple[list[Member], list[tuple[Member, Case]]]:
    """The seed's members and its round: every case of them, shuffled."""
    rng = random.Random(seed)
    members = [
        make_member(workload, stratum, index)
        for stratum in workload.strata
        for index in sorted(rng.sample(range(stratum.size), stratum.pick))
    ]
    cases = [(m, c) for m in members for c in m.cases]
    rng.shuffle(cases)
    return members, cases


# ------------------------------------------------------------------ checks


def _touches(indices: list[int], i: int, j: int) -> bool:
    """Whether a diamond (a, b) or Ptolemy (a, b, c, d) violation reads m[i,j]."""
    if len(indices) == 2:
        a, b = indices
        cells = {(a, b), (a + 1, b + 1), (a + 1, b), (a, b + 1), (a, a + 1), (b, b + 1)}
    elif len(indices) == 4:
        a, b, c, d = indices
        cells = {(a, c), (b, d), (a, b), (c, d), (a, d), (b, c)}
    else:
        return False
    return (i, j) in cells or (j, i) in cells


def check_output(case: Case, rc: int, out: str) -> str | None:
    """Semantic check of one case's exit code and stdout; None when it holds.

    These checks do not trust the recorded outputs: each one states an
    identity the output must satisfy.
    """
    if not case.check:
        return None
    kind, *params = case.check
    want_rc = 1 if kind in ("violation_at", "window") else 0
    if rc != want_rc:
        return f"{kind}: exit {rc}, expected {want_rc}"
    if kind == "grid":
        lines = out.rstrip("\n").split("\n")
        return None if len(lines) == params[0] else f"grid: {len(lines)} lines"
    try:
        doc = json.loads(out)
    except ValueError:
        return f"{kind}: stdout is not JSON"
    if kind == "ok":
        ok = doc.get("ok") is True and doc.get("ptolemy", {"ok": True})["ok"] is True
    elif kind == "equal":
        ok = doc.get("equal") is True
    elif kind == "trace_ok":
        ok = doc["trace_matches_closed_form"] is True and doc["properties"]["ok"] is True
    elif kind == "violation_at":
        i, j = params
        found = doc.get("violations", []) + doc.get("ptolemy", {}).get("violations", [])
        ok = doc.get("ok") is False and any(_touches(v["indices"], i, j) for v in found)
    elif kind == "det_triple":
        ok = doc["ok"] is True and doc["det"] == doc["det_oracle"] == doc["expected"]
    elif kind == "all_ok":
        ok = doc["ok"] is True and all(
            c["det"] == c["det_oracle"] == c["expected"] for c in doc["cases"]
        )
    elif kind == "rank1":
        ok = doc["ok"] is True and doc["rank1"]["ok"] is True
    elif kind == "window":
        ok = doc.get("ok") is False and "outside declared window" in doc.get("error", "")
    elif kind == "rows":
        rows, cols = params
        ok = len(doc["rows"]) == rows and all(len(r) == cols for r in doc["rows"])
    elif kind == "matrix":
        n = params[0]
        ok = doc["n"] == n and all(r[i] == "0" for i, r in enumerate(doc["entries"]))
    elif kind == "cone":
        span = params[0] + 1
        ok = len(doc["entries"]) == span * (span + 1) // 2
    elif kind == "period":
        ok = doc["period"] is not None and params[0] % doc["period"] == 0
    else:
        raise ValueError(f"unknown check {kind!r}")
    return None if ok else f"{kind}: check failed"
