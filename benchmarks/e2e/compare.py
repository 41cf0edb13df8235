"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds one result document per line, as ``run.py --json-out``
appends them (several runs per workload; traced runs are ignored).  For
every (workload, end-to-end metric) the two sets' medians are compared
under the metric's bound from ``BENCHMARK.json``:

* ``unresolved`` - a set's own spread (distance between its quartiles,
  as a share of its median) is wider than the bound, so the sets cannot
  be told apart at that resolution;
* ``worse`` / ``better`` - B's median is worse / better than A's by more
  than the bound;
* ``within`` - neither.

The count metrics (``work_per_update``, ``stored_bytes_per_edge``) are
held to more than their bound where a run's counts depend on its seed
alone (the open-loop workloads): runs of the same seed are paired, and
the row reads ``identical`` if every pair agrees bit for bit, ``worse``
if any B run counts more than its A run by any amount, else ``better``.

Exits 1 if any row is ``worse``.  This is the tool for "two sets of
runs of one commit agree" and for every before/after.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Metrics that are counts, both "lower is better".
COUNTS = ("work_per_update", "stored_bytes_per_edge")


class RunSet:
    """The untraced runs of one ``--json-out`` file."""

    def __init__(self, path: str) -> None:
        #: workload -> metric -> values
        self.values: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        #: workload -> count metric -> seed -> value, for the workloads
        #: whose counts depend on the seed alone
        self.by_seed: dict[str, dict[str, dict[int, float]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        for line in Path(path).read_text().splitlines():
            document = json.loads(line)
            if document["trace"]:
                continue
            workload = document["workload"]
            for metric, entry in document["metrics"].items():
                self.values[workload][metric].append(entry["value"])
                if metric in COUNTS and document["counts_exact"]:
                    self.by_seed[workload][metric][document["seed"]] = entry["value"]


def count_verdict(a: dict[int, float], b: dict[int, float]) -> str:
    """Verdict on a count metric from the runs of the same seed."""
    pairs = [(a[seed], b[seed]) for seed in sorted(set(a) & set(b))]
    if all(first == second for first, second in pairs):
        return "identical"
    return "worse" if any(second > first for first, second in pairs) else "better"


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the whole
    range when there are too few runs for quartiles)."""
    median = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / median
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / median


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    first, second = RunSet(sys.argv[1]), RunSet(sys.argv[2])
    before, after = first.values, second.values
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    worse = 0
    print(
        f"{'workload':16s} {'metric':26s} {'A median':>12s} {'B median':>12s} "
        f"{'change':>8s} {'A spread':>8s} {'B spread':>8s} {'bound':>6s}  verdict"
    )
    for workload in sorted(set(before) & set(after)):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a, b = before[workload][name], after[workload][name]
            if not a or not b:
                continue
            a_median, b_median = statistics.median(a), statistics.median(b)
            change = (b_median - a_median) / a_median
            worsening = change if metric["better"] == "lower" else -change
            a_counts = first.by_seed[workload][name]
            b_counts = second.by_seed[workload][name]
            if a_counts.keys() & b_counts.keys():
                verdict = count_verdict(a_counts, b_counts)
            elif max(spread(a), spread(b)) > bound:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "worse"
            elif worsening < -bound:
                verdict = "better"
            else:
                verdict = "within"
            worse += verdict == "worse"
            print(
                f"{workload:16s} {name:26s} {a_median:12.4f} {b_median:12.4f} "
                f"{change:+8.1%} {spread(a):8.3f} {spread(b):8.3f} {bound:6.2f}  {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
