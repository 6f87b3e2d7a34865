#!/usr/bin/env python3
"""Compare two gdp::obs run reports (BENCH_<name>.json), before -> after.

    compare_reports.py BEFORE.json AFTER.json
    compare_reports.py --self-test FIXTURE_DIR

The two planes are compared the way they are meant to be read:

  * deterministic plane (counters / gauges / histograms): exactly. Every
    metric present in only one report, and every value that differs, is
    listed as "added", "removed" or "changed". Any difference is a change
    of behaviour that needs an explanation, so the exit status is 1.
  * timing plane: as ratios. One table row per span (total_ns, with run
    counts) and per timing gauge, giving before, after and after / before.
    Timing never affects the exit status: wall clock is noisy by nature.

Exit status: 0 when the deterministic planes are equal, 1 when they
differ, 2 when a report cannot be loaded or fails validation (the schema
check of validate_report.py in this directory).

--self-test runs the comparison on FIXTURE_DIR/report_before.json and
FIXTURE_DIR/report_after.json, whose deterministic planes are equal and
whose timing planes differ, and on edited copies of the second, checking
that each kind of deterministic difference is reported and fails the
comparison. Stdlib only, like validate_report.py.
"""

from __future__ import annotations

import copy
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import validate_report  # noqa: E402  (sibling module, stdlib-only)

DET_TABLES = ("counters", "gauges", "histograms")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    errors = validate_report.validate(report)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return report


def deterministic_diff(before: dict, after: dict) -> list[str]:
    """Lines describing every difference of the deterministic planes."""
    lines = []
    for table in DET_TABLES:
        a = before["deterministic"].get(table, {})
        b = after["deterministic"].get(table, {})
        for name in sorted(a.keys() | b.keys()):
            where = f"{table}.{name}"
            if name not in a:
                lines.append(f"added    {where} = {json.dumps(b[name], sort_keys=True)}")
            elif name not in b:
                lines.append(f"removed  {where} (was {json.dumps(a[name], sort_keys=True)})")
            elif a[name] != b[name]:
                lines.append(f"changed  {where}: {json.dumps(a[name], sort_keys=True)} -> "
                             f"{json.dumps(b[name], sort_keys=True)}")
    return lines


def _ratio(before: float | None, after: float | None) -> str:
    if before is None or after is None:
        return "-"
    if before == 0:
        return "-" if after == 0 else "inf"
    return f"{after / before:.3f}"


def _span_cell(span: dict | None) -> str:
    return "-" if span is None else f"{span['total_ns'] / 1e9:.3f} s x{span['count']}"


def timing_rows(before: dict, after: dict) -> list[tuple[str, str, str, str]]:
    """(name, before, after, ratio) rows for every span and timing gauge."""
    rows = []
    a = before["timing"].get("spans", {})
    b = after["timing"].get("spans", {})
    for name in sorted(a.keys() | b.keys()):
        ta = a[name]["total_ns"] if name in a else None
        tb = b[name]["total_ns"] if name in b else None
        rows.append((f"span {name}", _span_cell(a.get(name)), _span_cell(b.get(name)),
                     _ratio(ta, tb)))
    a = before["timing"].get("gauges", {})
    b = after["timing"].get("gauges", {})
    for name in sorted(a.keys() | b.keys()):
        rows.append((f"gauge {name}", str(a.get(name, "-")), str(b.get(name, "-")),
                     _ratio(a.get(name), b.get(name))))
    return rows


def compare(before: dict, after: dict, out: io.TextIOBase) -> int:
    diff = deterministic_diff(before, after)
    if diff:
        print(f"deterministic plane: {len(diff)} difference(s)", file=out)
        for line in diff:
            print(f"  {line}", file=out)
    else:
        print("deterministic plane: equal", file=out)
    rows = [("timing", "before", "after", "after/before")] + timing_rows(before, after)
    widths = [max(len(r[k]) for r in rows) for k in range(4)]
    for r in rows:
        print("  " + "  ".join(r[k].ljust(widths[k]) if k == 0 else r[k].rjust(widths[k])
                               for k in range(4)), file=out)
    return 1 if diff else 0


def self_test(fixture_dir: str) -> int:
    before = load(os.path.join(fixture_dir, "report_before.json"))
    after = load(os.path.join(fixture_dir, "report_after.json"))
    failures = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    out = io.StringIO()
    expect(compare(before, after, out) == 0, "equal deterministic planes must compare equal")
    text = out.getvalue()
    expect("deterministic plane: equal" in text, "equal planes must say so")
    rows = {r[0]: r for r in timing_rows(before, after)}
    expect(any(r[3] not in ("-", "1.000") for r in rows.values()),
           "the fixtures' timing planes must differ")
    for name, r in rows.items():
        expect(r[3] == "-" or float(r[3]) > 0, f"{name}: bad ratio {r[3]}")

    # Every kind of deterministic difference fails the comparison.
    det = after["deterministic"]
    counter = sorted(det["counters"])[0]
    hist = sorted(det["histograms"])[0]
    edits = {
        "changed  counters.": lambda d: d["counters"].__setitem__(counter,
                                                                  d["counters"][counter] + 1),
        "added    counters.": lambda d: d["counters"].__setitem__("zz.self_test_added", 1),
        "removed  counters.": lambda d: d["counters"].pop(counter),
        "changed  histograms.": lambda d: d["histograms"][hist].__setitem__(
            "sum", d["histograms"][hist]["sum"] + 1),
    }
    for kind, edit in edits.items():
        edited = copy.deepcopy(after)
        edit(edited["deterministic"])
        out = io.StringIO()
        status = compare(before, edited, out)
        expect(status == 1, f"{kind.strip()}: exit status {status}, expected 1")
        expect(kind in out.getvalue(), f"{kind.strip()}: not reported")

    # The timing plane never fails a comparison.
    edited = copy.deepcopy(after)
    for span in edited["timing"]["spans"].values():
        span["total_ns"] *= 3
        if span.get("count", 0) > 0:
            span["max_ns"] *= 3
            span["min_ns"] *= 3
    expect(compare(before, edited, io.StringIO()) == 0, "timing differences must not fail")

    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(edits)} deterministic edits caught, timing plane ignored")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--self-test":
        try:
            return self_test(argv[2])
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"self-test: {err}", file=sys.stderr)
            return 2
    if len(argv) != 3:
        print(f"usage: {argv[0]} BEFORE.json AFTER.json | --self-test FIXTURE_DIR",
              file=sys.stderr)
        return 2
    try:
        before, after = load(argv[1]), load(argv[2])
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"cannot compare: {err}", file=sys.stderr)
        return 2
    print(f"{argv[1]} -> {argv[2]}")
    return compare(before, after, sys.stdout)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
