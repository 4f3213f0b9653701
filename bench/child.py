"""The benchmark's child interpreter: one workload run, or a set-up sample.

Usage (the parent ``run.py`` builds these command lines):

    python3 bench/child.py --started <monotonic s> --report <json> setup
    python3 bench/child.py --started <monotonic s> --report <json> \
        run <workload> <seed> <seconds> <trace 0|1> <work dir>

``--started`` is the parent's ``time.monotonic()`` just before it
spawned this process; CLOCK_MONOTONIC is system-wide on Linux, so the
difference to the moment ``import eihlab`` finishes is the set-up time
a user pays before any work starts.  ``setup`` only imports.

``run`` repeats the workload's operations in this one interpreter until
``seconds`` have passed (a started operation always finishes) and
records each one's kind, wall time and check outcome; an untraced
``export`` run ends with one desk-sized operation.  With trace 1 the
tracer is installed first and every second operation runs traced; the
others, with the wrappers switched off, are the untraced reference.  A
traced ``terminal`` run ends with the 2-worker determinism check.
The report also holds the peak RSS and, traced, the per-layer summary.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import eihlab  # noqa: F401
import eihlab.cli  # noqa: F401

_IMPORTED = time.monotonic()

MAX_MESSAGES = 5


def _record(load, result, traced: bool, messages: list) -> dict:
    failed = [p for p in result.problems if p]
    for problems in failed:
        if len(messages) < MAX_MESSAGES:
            messages.append("; ".join(problems))
    return {"kind": result.kind, "wall_s": result.wall_s, "traced": traced,
            "checked": len(result.problems), "failed": len(failed),
            "bytes_written": load.bytes_written}


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    import workloads

    load = workloads.make(workload, seed, Path(work_dir))
    ops: list[dict] = []
    messages: list[str] = []
    extra: dict = {"speedup_2w": 0.0}
    deadline = time.monotonic() + seconds
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    k = 0
    while k < 2 * len(load.kinds) or time.monotonic() < deadline:
        # traced runs alternate untraced and traced operations, so that
        # both halves see the same machine; each kind gets both
        traced = trace and k % 2 == 1
        load.around_call = tracer.active if traced else contextlib.nullcontext
        result = load.run(k)
        ops.append(_record(load, result, traced, messages))
        k += 1
    desk = None if trace else load.desk_run()
    if desk is not None:
        ops.append(_record(load, desk, False, messages))
    if trace and workload == "terminal":
        # after the loop, so that neither worker count pays for warm-up
        problems, extra["speedup_2w"] = load.determinism()
        messages += problems
        ops.append({"kind": "determinism", "wall_s": 0.0, "traced": False, "checked": 1,
                    "failed": int(bool(problems)), "bytes_written": 0})
    report = {"ops": ops, "messages": messages, **extra,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        report["trace"] = tracer.summary()
    return report


def main(argv: list[str]) -> int:
    started = float(argv[argv.index("--started") + 1])
    report_path = argv[argv.index("--report") + 1]
    mode_at = next(i for i, a in enumerate(argv) if a in ("run", "setup"))
    report: dict = {"setup_s": _IMPORTED - started}
    if argv[mode_at] == "run":
        workload, seed, seconds, trace, work_dir = argv[mode_at + 1:mode_at + 6]
        report.update(run(workload, int(seed), float(seconds), trace == "1", work_dir))
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
