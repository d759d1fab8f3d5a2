#!/usr/bin/env python3
"""Compare saved benchmark outputs of two commits, metric by metric.

  python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the stdout of one or more `perfbench/run.py --trace 0`
runs, concatenated.  For every workload and end-to-end metric it prints
both medians, the change as a share of the base median, and whether the
change is worse than the metric's bound in BENCHMARK.json.  Runs whose
host/knob fingerprints differ are not comparable: the script says so and
exits 2 without comparing.  Exit 1 when some metric is worse than its
bound, 0 otherwise.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    """-> (fingerprints, {workload: {metric: [values]}})"""
    prints, runs, workload = set(), {}, None
    for line in pathlib.Path(path).read_text().splitlines():
        if line.startswith("perfbench workload="):
            workload = line.split()[1].split("=", 1)[1]
        elif line.startswith("fingerprint "):
            prints.add(line[len("fingerprint "):])
        elif line.startswith('{"correct"') and workload is not None:
            metrics = json.loads(line)["metrics"]
            for name, metric in metrics.items():
                runs.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
    return prints, runs


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_prints, base = load(sys.argv[1])
    new_prints, new = load(sys.argv[2])
    if len(base_prints | new_prints) != 1:
        print("not comparable: the runs have different fingerprints:")
        for fingerprint in sorted(base_prints | new_prints):
            print("  " + fingerprint)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = False
    print("%-11s %-12s %14s %14s %8s %6s" % ("workload", "metric", "base",
                                            "new", "change", "bound"))
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            b = statistics.median(base[workload][name])
            n = statistics.median(new[workload][name])
            change = (n - b) / b if b else 0.0
            regressed = (change if metric["better"] == "lower"
                         else -change) > metric["bound"]
            worse |= regressed
            print("%-11s %-12s %14.6g %14.6g %+7.1f%% %5.0f%% %s" % (
                workload, name, b, n, 100 * change, 100 * metric["bound"],
                "WORSE" if regressed else ""))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
