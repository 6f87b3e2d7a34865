#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload x metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each input holds one run per line, as `perfbench/run.py --record FILE`
writes them: {"workload", "seed", "trace", "correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}; the bounds and directions come from
BENCHMARK.json. Runs of one workload are paired by trace mode and seed (in
seed order; by position within a trace mode when the seeds differ). For
every workload x metric it
prints each side's median and quartiles, the pairs NEW won (ties count for
neither), the highest percentile with at least ten samples beyond it, and a
verdict:

  improved    NEW wins >= 9/10 of the pairs and the medians differ, in the
              better direction, by more than BASE's quartile distance;
  unresolved  the run-to-run spread (quartile distance / median, the larger
              of the two sides) exceeds the metric's bound, unless every NEW
              run reads better than every BASE run;
  worse       NEW's median is worse than BASE's by more than the bound (for
              metrics without a bound: NEW loses >= 9/10 of the pairs and the
              medians differ by more than BASE's quartile distance);
  unchanged   otherwise.

Standard library only. Exits 2 on malformed input (including metric names
outside [A-Za-z0-9][A-Za-z0-9_.-]{0,63}).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import re
import statistics
import sys

SPEC_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WIN_SHARE = 0.9
MIN_TAIL = 10
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def highest_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= MIN_TAIL - 1e-9:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(base: list[float], new: list[float], higher_is_better: bool,
            bound: float | None, wins: int, losses: int, pairs: int) -> str:
    sign = 1.0 if higher_is_better else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nmed = quartiles(new)[1]
    gain = sign * (nmed - bmed)  # > 0: NEW is better
    if pairs and wins >= WIN_SHARE * pairs and gain > bq3 - bq1:
        return "improved"
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if bound is None:
        if pairs and losses >= WIN_SHARE * pairs and -gain > bq3 - bq1:
            return "worse"
        return "unchanged"
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(bmed):
        return "worse"
    return "unchanged"


def load(path: pathlib.Path) -> list[dict]:
    runs = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        run = json.loads(line)
        for key in ("workload", "seed", "metrics"):
            if key not in run:
                raise ValueError(f"{path}:{lineno}: missing {key!r}")
        for name in run["metrics"]:
            if not valid_name(name):
                raise ValueError(f"{path}:{lineno}: bad metric name {name!r}")
        runs.append(run)
    return runs


def run_key(run: dict) -> tuple[int, int]:
    return run.get("trace", 0), run["seed"]


def pair(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_key = {run_key(r): r for r in base}
    if len(by_key) == len(base) and all(run_key(r) in by_key for r in new):
        return [(by_key[run_key(r)], r) for r in sorted(new, key=run_key)]
    pairs = []
    for trace in sorted({r.get("trace", 0) for r in new}):
        pairs += zip([r for r in base if r.get("trace", 0) == trace],
                     [r for r in new if r.get("trace", 0) == trace])
    return pairs


def compare(base_runs: list[dict], new_runs: list[dict], spec: dict) -> list[dict]:
    metrics = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    rows = []
    workloads = sorted({r["workload"] for r in base_runs} & {r["workload"] for r in new_runs})
    for w in workloads:
        b_runs = [r for r in base_runs if r["workload"] == w]
        n_runs = [r for r in new_runs if r["workload"] == w]
        names = sorted(set().union(*(r["metrics"] for r in b_runs))
                       & set().union(*(r["metrics"] for r in n_runs)))
        for name in names:
            m = metrics.get(name, {})
            higher = m.get("better", "lower") == "higher"
            pairs = [(b["metrics"][name]["value"], n["metrics"][name]["value"])
                     for b, n in pair(b_runs, n_runs)
                     if name in b["metrics"] and name in n["metrics"]]
            base = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            new = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            sign = 1.0 if higher else -1.0
            wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
            losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
            p = highest_percentile(len(new))
            rows.append({
                "workload": w, "metric": name, "unit": m.get("unit", ""),
                "base": quartiles(base), "new": quartiles(new), "n": (len(base), len(new)),
                "wins": wins, "pairs": len(pairs),
                "tail": None if p is None else (p, percentile(new, p)),
                "failed": (sum(r.get("failed", 0) for r in b_runs),
                           sum(r.get("failed", 0) for r in n_runs)),
                "verdict": verdict(base, new, higher, m.get("bound"), wins, losses, len(pairs)),
            })
    return rows


def render(rows: list[dict]) -> str:
    def q(t):
        return f"{t[1]:.6g} [{t[0]:.6g}, {t[2]:.6g}]"
    lines = []
    header = ("workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "n",
              "won", "tail", "failed", "verdict")
    table = [header]
    for r in rows:
        tail = "-" if r["tail"] is None else f"p{r['tail'][0]:g}={r['tail'][1]:.6g}"
        table.append((r["workload"], f"{r['metric']} ({r['unit']})", q(r["base"]), q(r["new"]),
                      f"{r['n'][0]}/{r['n'][1]}", f"{r['wins']}/{r['pairs']}", tail,
                      f"{r['failed'][0]}/{r['failed'][1]}", r["verdict"]))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=pathlib.Path)
    ap.add_argument("new", type=pathlib.Path)
    args = ap.parse_args(argv)
    try:
        spec = json.loads(SPEC_PATH.read_text())
        rows = compare(load(args.base), load(args.new), spec)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
