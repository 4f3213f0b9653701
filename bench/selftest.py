"""Show that every workload's correctness check fires.

    python3 bench/selftest.py

For each workload, at reduced sizes, runs operation 0 once clean and
once with its output corrupted after the program ran and before it is
checked.  The clean run must report no failed output; the corrupted one
exactly one.  Exits 0 when every check fired, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

SMALL = {"TERMINAL_PATHS": 20_000, "HEDGE_PATHS": 1_000, "EXPORT_PATHS": 5_000,
         "SCAN_SETS": 20, "LEMMA_TRIALS": 2, "LEMMA_DRAWS": 512}


def _add_violation(output):
    code, stdout = output
    payload = json.loads(Path(stdout).read_text(encoding="utf-8"))
    payload["dichotomy_violations"] = 1
    Path(stdout).write_text(json.dumps(payload), encoding="utf-8")
    return output


def _swap_hedge_medians(output):
    code, stdout = output
    rows = [line.split(",") for line in Path(stdout).read_text(encoding="utf-8").splitlines()]
    rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
    Path(stdout).write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    return output


def _perturb_first_row(output):
    code, path = output
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    path_no, index_value, stock = lines[1].rstrip("\n").split(",")
    index_value = repr(float(index_value) * (1.0 + 2.0**-50))
    lines[1] = f"{path_no},{index_value},{stock}\n"
    Path(path).write_text("".join(lines), encoding="utf-8")
    return output


def _bad_price(output):
    output["prices"][0] = (1.5, output["prices"][0][1])
    return output


CORRUPT = {"terminal": _add_violation, "hedge": _swap_hedge_medians,
           "export": _perturb_first_row, "scan": _bad_price}


def failed_outputs(workload: str, work: Path, corrupt) -> tuple[int, int]:
    """Failed and checked outputs of operation 0, corrupted by ``corrupt``."""
    load = workloads.make(workload, 7, work)
    call = load.call
    load.call = lambda inputs: corrupt(call(inputs))
    problems = load.run(0).problems
    return sum(1 for p in problems if p), len(problems)


def main() -> int:
    for name, value in SMALL.items():
        setattr(workloads, name, value)
    work = BENCH.parent / ".bench_work" / f"selftest-{os.getpid()}"
    ok = True
    try:
        for workload, corrupt in CORRUPT.items():
            clean = failed_outputs(workload, work, lambda output: output)
            corrupted = failed_outputs(workload, work, corrupt)
            fired = clean[0] == 0 and corrupted[0] == 1
            ok &= fired
            print(f"SELFTEST {workload}: clean failed/checked {clean}, "
                  f"corrupted {corrupted} -> {'fires' if fired else 'DOES NOT FIRE'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
