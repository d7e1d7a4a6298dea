"""The friezecalc benchmark: one workload at one seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``
there, never from an installed copy.  With ``--trace 0`` it reports the
end-to-end metrics: ``setup_s`` is the median over several fresh workload
processes of the time from process start to ready (interpreter start,
importing ``friezecalc.cli``, drawing, checking and writing the inputs);
the workload process then runs whole rounds of its cases for S seconds.
With ``--trace 1`` it reports the per-layer metrics of ``tracing.py``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The workloads, their inputs
and the recorded outputs are described in ``workloads.py`` and README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 15
DEADLINE_S = 170.0  # the whole run, set-up included
IMPORT_SAMPLES = 7


class BenchError(Exception):
    pass


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise BenchError("out of time")
        return left


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _worker(args, mode: str, index: int, clock: Clock) -> tuple[float, dict | None]:
    """Start one workload process; (seconds to ready, its result or None)."""
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
           str(workdir), mode, str(args.seconds)]
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), bufsize=0)
        try:
            line = _first_line(proc, clock)
            ready = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=clock.left())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise BenchError(f"workload process failed (exit {proc.returncode})")
        lines = out.decode().strip().splitlines()
        return ready, json.loads(lines[-1]) if lines else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _first_line(proc, clock: Clock) -> bytes:
    """The first line of the process's stdout, read without consuming more."""
    line = b""
    while not line.endswith(b"\n"):
        if not select.select([proc.stdout], [], [], clock.left())[0]:
            raise BenchError("the workload process did not get ready in time")
        byte = proc.stdout.read(1)
        if not byte:
            break
        line += byte
    return line


def _import_s(clock: Clock) -> float:
    """Median cost of `import friezecalc.cli` in a fresh interpreter."""
    def once(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                       timeout=clock.left())
        return time.perf_counter() - t0

    bare, loaded = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(once("pass"))
        loaded.append(once("import friezecalc.cli"))
    return statistics.median(loaded) - statistics.median(bare)


def _quantile(sorted_values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (weights by the midpoint rule).

    It averages the order statistics with Beta(p(n+1), (1-p)(n+1)) weights,
    so it does not jump between two clusters of case costs when the quantile
    falls in the gap between them, as a single order statistic does.
    """
    n = len(sorted_values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [
        math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        for x in ((i + 0.5) / n for i in range(n))
    ]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def measure(args, clock: Clock) -> tuple[dict, dict]:
    setup = [_worker(args, "setup", i, clock)[0] for i in range(SETUP_SAMPLES - 1)]
    ready, result = _worker(args, "run", SETUP_SAMPLES - 1, clock)
    setup.append(ready)
    lat = sorted(result["latencies"])
    p50, p90 = _quantile(lat, 0.5), _quantile(lat, 0.9)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cases_per_s": (len(lat) / result["wall_s"], "1/s"),
        "case_p50_ms": (p50 * 1e3, "ms"),
        "case_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    failed = sum(result["failed"].values())
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{len(lat)} cases, {sum(v > p90 for v in lat)} above p90, "
          f"{SETUP_SAMPLES} set-ups")
    print(f"  fail_ratio {failed / result['attempted']:.4g} ratio "
          f"({failed} of {result['attempted']} cases)")
    return metrics, result


def traced(args, clock: Clock) -> tuple[dict, dict]:
    _, result = _worker(args, "trace", 0, clock)
    metrics = {name: tuple(v) for name, v in result["metrics"].items()}
    metrics["cli.import_s"] = (_import_s(clock), "s")
    print(f"{args.workload} seed {args.seed}: traced, {result['attempted']} cases")
    return metrics, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "friezecalc" / "cli.py").is_file():
        print(f"error: no friezecalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (BENCH / "golden" / f"{args.workload}.json").is_file():
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    clock = Clock()
    try:
        metrics, result = (traced if args.trace else measure)(args, clock)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # not empty: another run is using it
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for example in result["examples"]:
        print(f"  FAILED {example}", file=sys.stderr)
    failed = sum(result["failed"].values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
