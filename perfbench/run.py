"""octofast benchmark.

    python3 perfbench/run.py --workload int-pairs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; octofast is imported from ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.  The
line before it is the run record.  The record, and in a traced run the spans,
are also written to ``perfbench/out``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    nproc = len(os.sched_getaffinity(0))
    src = ROOT / "src"
    if not (src / "octofast" / "__init__.py").is_file():
        print(f"perfbench: no octofast sources under {src}", file=sys.stderr)
        return 2
    # One CPU for the whole run (the set-up children inherit it): the speed
    # ratio to the reference differs between CPUs of a shared machine.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    import harness
    import layers
    from octofast.kernel import default_pipeline

    if args.workload not in harness.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")

    p = default_pipeline()
    if args.trace:
        metrics, record, out, tracer = layers.run_traced(
            args.workload, args.seed, args.seconds, p)
    else:
        metrics, record, out = harness.run_end_to_end(
            args.workload, args.seed, args.seconds, p)
        tracer = None

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one caller, single-threaded",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "machine": platform.machine(),
        "nproc": nproc, "cpu": max(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "correct": out.correct, "problems": out.problems,
    } | record
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (outdir / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(outdir / f"spans-{stem}.csv")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
