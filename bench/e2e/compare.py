#!/usr/bin/env python3
"""Compares end-to-end benchmark runs of a parent and a change commit.

Each directory holds one subdirectory per workload with one `<name>.out`
file per run: the stdout of `python3 bench/e2e/run.py --workload W --seed N`
(only its last line, the result JSON, is read). Runs pair up by file name,
so give the parent's and the change's run of one seed the same name, and
alternate which side runs first.

  python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR
  python3 bench/e2e/compare.py RUNS_DIR          # spread of one commit

Verdicts for each (workload, end-to-end metric), with the bounds from
BENCHMARK.json:

  gain          the change wins >= 9/10 of the pairs (ties count for
                neither side) and the medians differ by more than the
                parent's interquartile range
  inconclusive  the relative spread (IQR / median) of either side exceeds
                the bound: the noise is larger than the effect to detect
  regression    the change's median is worse than the parent's by more
                than the bound
  slower        within the bound, but the parent wins >= 9/10 of the pairs
                and the medians differ by more than the parent's
                interquartile range: the gain rule mirrored, so a clear
                slowdown on a steady workload shows although the one bound
                per metric is set by the noisiest workload
  within bound  none of the above

Per-layer metrics (from --trace 1 runs) have no bound; they are listed with
their medians and relative change, to show which layer moved. Exit code 1
when any regression is reported.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: {run file name: {metric: value}}}"""
    runs = {}
    for wdir in sorted(Path(directory).iterdir()):
        if not wdir.is_dir():
            continue
        for f in sorted(wdir.glob("*.out")):
            lines = f.read_text().strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"warning: {f}: no result line, skipped",
                      file=sys.stderr)
                continue
            runs.setdefault(wdir.name, {})[f.name] = {
                k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, pairs, spec):
    direction, bound = spec["better"], spec["bound"]
    pq1, pmed, pq3 = quartiles(parent)
    cmed = statistics.median(change)
    wins = sum(better(c, p, direction) for p, c in pairs)
    losses = sum(better(p, c, direction) for p, c in pairs)
    clear = len(pairs) >= MIN_PAIRS and abs(cmed - pmed) > pq3 - pq1
    if clear and wins >= WIN_SHARE * len(pairs):
        return "gain", wins
    if max(spread(parent), spread(change)) > bound:
        return "inconclusive", wins
    worse = (cmed - pmed) / pmed if direction == "lower" else \
        (pmed - cmed) / pmed
    if worse > bound:
        return "regression", wins
    if clear and losses >= WIN_SHARE * len(pairs):
        return "slower", wins
    return "within bound", wins


def specs():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return ({m["name"]: m for m in bench["end_to_end"]},
            {m["name"]: m for m in bench["per_layer"]})


def report_spread(runs, e2e):
    print(f"{'workload':20s} {'metric':34s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s}  bound")
    for workload, by_file in sorted(runs.items()):
        metrics = sorted({m for r in by_file.values() for m in r})
        for metric in metrics:
            xs = [r[metric] for r in by_file.values() if metric in r]
            q1, med, q3 = quartiles(xs)
            note = ""
            if metric in e2e:
                b = e2e[metric]["bound"]
                s = spread(xs)
                note = (f"{b:.2f} " + ("ok" if s <= b / 3 else
                                       "wide" if s <= b else "too wide"))
            print(f"{workload:20s} {metric:34s} {len(xs):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread(xs):8.4f}  {note}")
    return 0


def report_compare(parent_runs, change_runs, e2e, layers):
    regressions = 0
    print(f"{'workload':20s} {'metric':34s} {'pairs':>5s} {'parent':>12s} "
          f"{'change':>12s} {'delta':>8s} {'wins':>5s}  verdict")
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_by, c_by = parent_runs.get(workload, {}), change_runs.get(workload,
                                                                    {})
        names = sorted(set(p_by) & set(c_by))
        metrics = sorted({m for r in list(p_by.values()) + list(c_by.values())
                          for m in r})
        for metric in metrics:
            pairs = [(p_by[n][metric], c_by[n][metric]) for n in names
                     if metric in p_by[n] and metric in c_by[n]]
            if not pairs:
                print(f"{workload:20s} {metric:34s} no paired runs")
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            pmed, cmed = statistics.median(parent), statistics.median(change)
            delta = (cmed - pmed) / abs(pmed) if pmed else 0.0
            if metric in e2e:
                v, wins = verdict(parent, change, pairs, e2e[metric])
                regressions += v == "regression"
            else:
                v = "layer" if metric in layers else "unlisted"
                wins = sum(better(c, p, layers.get(metric, {}).get(
                    "better", "lower")) for p, c in pairs)
            print(f"{workload:20s} {metric:34s} {len(pairs):5d} {pmed:12.6g} "
                  f"{cmed:12.6g} {delta:+8.2%} {wins:5d}  {v}")
    return 1 if regressions else 0


def main(argv):
    if len(argv) not in (2, 3) or argv[1] in ("-h", "--help"):
        print(__doc__)
        return 2
    e2e, layers = specs()
    if len(argv) == 2:
        return report_spread(load_runs(argv[1]), e2e)
    return report_compare(load_runs(argv[1]), load_runs(argv[2]), e2e,
                          layers)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
