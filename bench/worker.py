"""The workload process of the benchmark; ``run.py`` starts it.

    python3 bench/worker.py WORKLOAD SEED WORKDIR setup|run|trace SECONDS

Set-up imports ``friezecalc.cli``, draws the seed's pool, checks every
member's input digest against the record, writes the documents into
WORKDIR and prints ``ready``.  In ``run`` mode it then issues the pool's
cases one at a time (a closed loop with one client) in whole rounds until
SECONDS have passed, and prints one JSON line with the latencies and the
failures.  In ``trace`` mode it runs an untraced pass, a traced pass and a
counting pass over the same rounds and prints the per-layer figures.

Every case is checked: its exit code and the sha256 of its stdout must
match ``golden/<workload>.json``, stderr must carry no traceback, and in
the first round the semantic check of ``workloads.check_output`` must hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from workloads import check_output

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden"
TRACEBACK = "Traceback (most recent call last)"


def golden_path(workload: str) -> Path:
    return GOLDEN / f"{workload}.json"


def run_in_process(cli, case) -> tuple[int | None, str, str]:
    """One case through ``cli.run``; rc None means it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(list(case.argv))
        except Exception as exc:  # an uncaught error is a traceback failure
            print(f"{TRACEBACK}\n{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = None
    return rc, out.getvalue(), err.getvalue()


def run_cold(case, prefix: list[str]) -> tuple[int | None, str, str]:
    """One case as a fresh process: ``prefix + argv``, stdin from a document."""
    stdin = open(case.stdin, "rb") if case.stdin else subprocess.DEVNULL
    try:
        proc = subprocess.run(
            prefix + list(case.argv), stdin=stdin, capture_output=True, timeout=60
        )
    finally:
        if case.stdin:
            stdin.close()
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def failure(case, expected, rc, out: str, err: str, semantic: bool) -> str | None:
    """The kind of the case's failure, or None when its output is right."""
    if rc is None or TRACEBACK in err:
        return "traceback"
    if rc != expected[0]:
        return "exit_code"
    if digest(out) != expected[1]:
        return "output"
    if semantic and check_output(case, rc, out) is not None:
        return "semantic"
    return None


class Loop:
    """Runs the pool in whole rounds and checks every case."""

    def __init__(self, plan, runner):
        self.plan = plan  # [(case, expected [rc, sha])]
        self.runner = runner
        self.attempted = 0
        self.failed: Counter[str] = Counter()
        self.examples: list[str] = []
        self.outcomes: Counter = Counter()  # exit code, or "traceback"
        self.rounds = 0

    def round(self, latencies: list[float] | None = None) -> tuple[float, float]:
        """One round; returns (its wall time less checking, summed latency)."""
        clock = time.perf_counter
        start = clock()
        checking = busy = 0.0
        for case, expected in self.plan:
            t0 = clock()
            rc, out, err = self.runner(case)
            t1 = clock()
            kind = failure(case, expected, rc, out, err, semantic=self.rounds == 0)
            checking += clock() - t1
            busy += t1 - t0
            if latencies is not None:
                latencies.append(t1 - t0)
            self.attempted += 1
            self.outcomes["traceback" if kind == "traceback" else rc] += 1
            if kind:
                self.failed[kind] += 1
                if len(self.examples) < 5:
                    self.examples.append(f"{kind}: {case.key} (exit {rc})")
        self.rounds += 1
        return clock() - start - checking, busy

    def until(self, seconds: float, latencies: list[float] | None = None):
        """Whole rounds until `seconds` of them have passed; (rounds, wall, busy)."""
        wall = busy = 0.0
        rounds = 0
        while rounds == 0 or wall < seconds:
            w, b = self.round(latencies)
            wall += w
            busy += b
            rounds += 1
        return rounds, wall, busy

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": dict(self.failed),
            "examples": self.examples,
        }


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def _traced_cold(kind: str, workdir: str):
    """Runner for traced cold cases, and the per-case stats it collects."""
    collected: list[dict] = []
    fd, stats_file = tempfile.mkstemp(dir=workdir, suffix=".json")
    os.close(fd)
    prefix = [sys.executable, str(BENCH / "tracing.py"), kind, stats_file]

    def runner(case):
        Path(stats_file).write_text("")
        result = run_cold(case, prefix)
        with open(stats_file, encoding="utf-8") as fh:
            collected.append(json.load(fh))
        return result

    return runner, collected


def trace(loop: Loop, wl, seconds: float, workdir: str) -> dict:
    """Untraced, traced and counting passes over the same pool."""
    import tracing

    plain_rounds, _, plain_busy = loop.until(seconds / 2)
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    if wl.cold:
        loop.runner, collected = _traced_cold("spans", workdir)
        span_rounds, _, span_busy = loop.until(seconds / 2)
        for stats in collected:
            calls.update(stats["calls"])
            self_s.update(stats["self_s"])
        loop.runner, collected = _traced_cold("counts", workdir)
        before = Counter(loop.outcomes)
        loop.round()
        ops = Counter()
        for stats in collected:
            ops.update(stats["ops"])
        peak_bits = max((s["peak_bits"] for s in collected), default=0)
    else:
        spans = tracing.Spans()
        spans.install()
        try:
            span_rounds, _, span_busy = loop.until(seconds / 2)
        finally:
            spans.uninstall()
        calls.update(spans.calls)
        self_s.update(spans.self_s)
        counts = tracing.Counts()
        before = Counter(loop.outcomes)
        counts.install()
        try:
            loop.round()
        finally:
            counts.uninstall()
        ops, peak_bits = counts.ops, counts.peak_bits
    outcomes = loop.outcomes - before  # those of the counting round
    metrics = {}
    for layer in tracing.LAYERS:  # figures per round
        metrics[f"{layer}.calls"] = (calls[layer] / span_rounds, "count")
        metrics[f"{layer}.self_s"] = (self_s[layer] / span_rounds, "s")
    for kind in tracing.OP_KINDS:
        metrics[f"field.{kind}.count"] = (ops[kind], "count")
    metrics["field.peak_bits"] = (peak_bits, "bits")
    for outcome in (1, 2, "traceback"):
        name = outcome if outcome == "traceback" else f"exit{outcome}"
        metrics[f"cli.{name}.count"] = (outcomes[outcome], "count")
    metrics["trace.overhead_ratio"] = (
        (span_busy / span_rounds) / (plain_busy / plain_rounds), "ratio",
    )
    return {"metrics": metrics, **loop.report()}


def main(argv: list[str]) -> int:
    workload, seed, workdir, mode, seconds = argv
    import friezecalc.cli as cli

    src = Path(cli.__file__).resolve().parent.parent
    if src != BENCH.parent / "src":
        print(f"error: friezecalc imported from {src}, not this checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[workload]
    members, cases = workloads.pool(wl, int(seed))
    with open(golden_path(workload), encoding="utf-8") as fh:
        record = json.load(fh)["members"]
    for m in members:
        if m.key not in record or m.digest() != record[m.key]["digest"]:
            print(f"error: inputs of {workload}/{m.key} differ from the record", file=sys.stderr)
            return 3
        for path, text in m.docs.items():
            target = Path(workdir, path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
    os.chdir(workdir)
    expected = {(m.key, c.key): r for m in members for c, r in zip(m.cases, record[m.key]["cases"])}
    plan = [(c, expected[m.key, c.key]) for m, c in cases]
    print("ready", flush=True)
    if mode == "setup":
        return 0

    if wl.cold:
        prefix = [sys.executable, "-m", "friezecalc"]
        loop = Loop(plan, lambda case: run_cold(case, prefix))
    else:
        loop = Loop(plan, lambda case: run_in_process(cli, case))
    if mode == "trace":
        result = trace(loop, wl, float(seconds), workdir)
    else:
        latencies: list[float] = []
        rounds, wall, _ = loop.until(float(seconds), latencies)
        who = resource.RUSAGE_CHILDREN if wl.cold else resource.RUSAGE_SELF
        result = {
            "rounds": rounds,
            "wall_s": wall,
            "latencies": latencies,
            "peak_rss_mb": _peak_rss_mb(who),
            **loop.report(),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
