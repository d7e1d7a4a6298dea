"""Record the expected output of every case in a workload's universe.

    python3 bench/record.py [WORKLOAD...]

For each member it stores the digest of its inputs and, for each of its
cases, the exit code and the sha256 of stdout, in ``golden/<workload>.json``.
Run it only on a commit whose outputs are known to be right; the benchmark
then fails every case whose output differs from the record.  A recorded
case must also pass its semantic check, so a wrong output is not recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = str(ROOT / "src")  # for the cli_cold processes

import friezecalc.cli as cli  # noqa: E402
import workloads  # noqa: E402
from worker import GOLDEN, TRACEBACK, digest, golden_path, run_cold, run_in_process  # noqa: E402


def record(wl, workdir: Path) -> dict:
    members = {}
    prefix = [sys.executable, "-m", "friezecalc"]
    for m in workloads.universe(wl):
        for path, text in m.docs.items():
            target = workdir / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        outcomes = []
        for case in m.cases:
            if wl.cold:
                rc, out, err = run_cold(case, prefix)
            else:
                rc, out, err = run_in_process(cli, case)
            problem = workloads.check_output(case, rc, out)
            if rc is None or TRACEBACK in err or problem:
                raise SystemExit(f"{wl.name}/{m.key}: {case.key}: {problem or err}")
            outcomes.append([rc, digest(out)])
        members[m.key] = {"digest": m.digest(), "cases": outcomes}
    return {"members": members}


def main(names: list[str]) -> None:
    GOLDEN.mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name in names or list(workloads.WORKLOADS):
            doc = record(workloads.WORKLOADS[name], workdir)
            lines = ",\n".join(
                f"{json.dumps(key)}: {json.dumps(value, sort_keys=True, separators=(',', ':'))}"
                for key, value in sorted(doc["members"].items())
            )
            with open(golden_path(name), "w", encoding="utf-8") as fh:
                fh.write(f'{{"workload": {json.dumps(name)}, "members": {{\n{lines}\n}}}}\n')
            print(f"{name}: {len(doc['members'])} members", file=sys.stderr)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main(sys.argv[1:])
