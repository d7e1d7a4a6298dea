"""One-off probe table of single-layer costs at fixed sizes.

    python3 bench/probe.py [--out FILE]

It times the layers that the open performance work targets, at the sizes
of the baseline in ROADMAP.md, on inputs drawn by this benchmark's own
generators from fixed seeds.  Each figure is the median of a few calls in
one process.  It is a reference table, not part of the repeated benchmark
run, so it has no bounds and checks only that the two determinant routes
agree.  It also runs the one known uncaught error, ``bm random --n 30
--count 1``, and reports how it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
import timeit
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import friezecalc.cli as cli  # noqa: E402
from friezecalc.classical import QuiddityData, cc_det_check  # noqa: E402
from friezecalc.matrix import (  # noqa: E402
    SeedData,
    build_from_seeds,
    check_ptolemy,
    det_closed_form,
    det_elimination,
    validate,
)
from tracing import Counts  # noqa: E402
from worker import TRACEBACK, run_in_process  # noqa: E402
from workloads import FIELDS, Case, _frieze_matrix, _quiddity  # noqa: E402


def _median_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _matrix(fkey: str, n: int):
    return _frieze_matrix(random.Random(f"probe/{fkey}/{n}"), FIELDS[fkey], n)


def _peak_bits(m) -> int:
    counts = Counts()
    counts.scan(m)
    return counts.peak_bits


def rows() -> list[dict]:
    out = []

    def row(layer: str, size: str, ms: float | None = None, **extra) -> None:
        entry = {"layer": layer, "size": size, **({"ms": round(ms, 3)} if ms is not None else {}), **extra}
        out.append(entry)
        print(f"{layer:28s} {size:14s} " + (f"{ms:10.3f} ms" if ms is not None else " " * 13)
              + "".join(f"  {k}={v}" for k, v in extra.items()), file=sys.stderr)

    for fkey in FIELDS:
        for n in (12, 24, 40):
            m = _matrix(fkey, n)
            ms = _median_ms(lambda: det_elimination(m), 3 if n < 40 else 1)
            row("matrix.det_elimination", f"{fkey} n={n}", ms,
                agrees=det_elimination(m) == det_closed_form(m))
    m = _matrix("q", 24)
    row("matrix.check_ptolemy", "q n=24", _median_ms(lambda: check_ptolemy(m), 3))
    m = _matrix("s5", 40)
    seeds = SeedData(tuple(m.entry(i, i + 1) for i in range(1, 40)),
                     tuple(m.entry(i, i + 2) for i in range(1, 39)))
    fd = m.field
    row("matrix.build_from_seeds", "s5 n=40", _median_ms(lambda: build_from_seeds(seeds, fd), 5))
    row("matrix.validate", "s5 n=40", _median_ms(lambda: validate(m), 5))
    for fkey in FIELDS:
        row("field.peak_bits", f"{fkey} n=40", None, bits=_peak_bits(_matrix(fkey, 40)))
    for k in (30, 60, 120):
        q = QuiddityData(tuple(_quiddity(random.Random(f"probe/cc/{k}"), k)))
        report = cc_det_check(q)
        ms = _median_ms(lambda: cc_det_check(q), 3 if k < 120 else 1)
        row("classical.cc_det_check", f"k={k}", ms, ok=report.ok)
    a = FIELDS["q"].element(Fraction(7, 3))
    b = FIELDS["q"].element(Fraction(-5, 4))
    fa, fb = Fraction(7, 3), Fraction(-5, 4)
    loops = 200_000
    per_op = min(timeit.repeat(lambda: a * b, number=loops, repeat=5)) / loops * 1e6
    bare = min(timeit.repeat(lambda: fa * fb, number=loops, repeat=5)) / loops * 1e6
    row("field.mul", "q FieldElement", None, us=round(per_op, 3))
    row("field.mul", "bare Fraction", None, us=round(bare, 3))
    rc, _, err = run_in_process(cli, Case(("bm", "random", "--n", "30", "--count", "1")))
    last = err.strip().splitlines()[-1] if err.strip() else ""
    row("cli.run", "bm random n=30", None,
        exit=rc, traceback=TRACEBACK in err, error=last)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the table as JSON to this file")
    args = parser.parse_args()
    table = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rows": rows(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
