"""Print the performance trend across the repo's ``BENCH_*.json`` records.

Each record ``BENCH_<n>.json`` at the root of the repo holds, for each
workload it measured, the change median of each end-to-end metric
(``end_to_end[workload]["metrics"][name]["change_median"]``).  For each
workload that ``BENCHMARK.json`` declares, this prints one row per record,
in order of ``n``, with the change median of every end-to-end metric that
``BENCHMARK.json`` declares, or ``-`` where the record has none; then one
row per record with the machine it was measured on.  Run from anywhere:

    python tools/bench_trend.py
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def records(directory: Path) -> list:
    """``(n, record)`` for each ``BENCH_<n>.json`` in ``directory``, by
    ``n``."""
    found = []
    for path in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found.append((int(match[1]), json.loads(path.read_text())))
    return sorted(found, key=lambda item: item[0])


def _median(record: dict, workload: str, metric: str) -> str:
    value = (record.get("end_to_end", {}).get(workload, {})
             .get("metrics", {}).get(metric, {}).get("change_median"))
    return "-" if value is None else f"{value:.4g}"


def _machine(record: dict) -> str:
    m = record.get("machine", {})
    python = " ".join(str(m[k]) for k in ("implementation", "python")
                      if k in m)
    parts = [python, m.get("cpu_model"),
             f"{m['nproc']} CPUs" if "nproc" in m else None]
    return ", ".join(str(p) for p in parts if p) or "-"


def trend(directory: Path, spec: dict) -> str:
    """The text this tool prints, for the records in ``directory`` and the
    workloads and end-to-end metrics of the benchmark ``spec``."""
    found = records(directory)
    metrics = [m["name"] for m in spec["end_to_end"]]
    widths = [max(len(name), 9) for name in metrics]
    lines = []
    for workload in (w["name"] for w in spec["workloads"]):
        header = " ".join(f"{n:>{w}}" for n, w in zip(metrics, widths))
        lines += ["", workload, "PR   " + header]
        lines += [f"{n:<4} " + " ".join(f"{_median(r, workload, m):>{w}}"
                                       for m, w in zip(metrics, widths))
                  for n, r in found]
    lines += ["", "machine"] + [f"{n:<4} {_machine(r)}" for n, r in found]
    return "\n".join(lines[1:]) + "\n"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.stdout.write(trend(ROOT, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
