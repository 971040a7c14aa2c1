#!/usr/bin/env python3
"""Compare the deterministic counts of two BENCH_*.json files.

Usage: python3 bench/diff_counts.py PARENT.json CHANGE.json

Both files are the JSON arrays of flat rows the benches write
(bench_por, bench_enumerate and bench_deadlock with
--benchmark_filter=NONE write BENCH_por.json and BENCH_search.json,
bench_service writes BENCH_service.json).
Rows are matched in order, so run the benches in the same order for
both files.  Every field of every row is compared except the timing
fields: any field named for a time unit (an `ms`, `us` or `ns` word,
e.g. wall_ms, wall_ms_off) and the rates derived from wall time
(states_per_sec, speedup*).

Prints each difference and exits 1 on any difference or when the row
counts differ; exits 0 when every compared field is identical.
"""

import json
import re
import sys

TIME_UNIT = re.compile(r"(^|_)(ms|us|ns)(_|$)")
TIME_RATES = {"states_per_sec"}


def ignored(field):
    return (TIME_UNIT.search(field) is not None or field in TIME_RATES
            or field.startswith("speedup"))


def label(index, row):
    parts = [str(row[k]) for k in ("engine", "variant", "workload")
             if k in row]
    return f"row {index} ({'/'.join(parts)})"


def diff_rows(parent, change):
    """Returns one line per difference between the two row lists."""
    out = []
    if len(parent) != len(change):
        out.append(f"row count: parent {len(parent)}, change {len(change)}")
    for i, (p, c) in enumerate(zip(parent, change)):
        for field in list(p) + [f for f in c if f not in p]:
            if ignored(field):
                continue
            pv = p.get(field, "<missing>")
            cv = c.get(field, "<missing>")
            if pv != cv:
                out.append(f"{label(i, p)}: {field}: parent {pv}, change {cv}")
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rows = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as f:
            rows.append(json.load(f))
    differences = diff_rows(*rows)
    for line in differences:
        print(line)
    if differences:
        return 1
    print(f"counts identical: {len(rows[0])} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
