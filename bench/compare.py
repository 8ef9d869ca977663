"""Old/new/ratio table for two files written with ``run.py --out``.

Each file holds one JSON line per run.  Runs of the same workload are
reduced to the median of each metric, so a file may hold untraced and
traced runs and several seeds.  Each (workload, metric) gets its own row;
the ratio is new / old.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path) -> dict:
    """{(workload, metric): (median value, unit, run count)}."""
    values = defaultdict(list)
    units = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                values[(rec["workload"], name)].append(m["value"])
                units[(rec["workload"], name)] = m["unit"]
    return {k: (statistics.median(v), units[k], len(v)) for k, v in values.items()}


def rows(old: dict, new: dict) -> list:
    out = []
    for key in sorted(set(old) | set(new)):
        o, n = old.get(key), new.get(key)
        unit = (n or o)[1]
        ratio = n[0] / o[0] if o and n and o[0] != 0 else None
        out.append((key[0], key[1], unit, o and o[0], n and n[0], ratio))
    return out


def _fmt(v):
    return "-" if v is None else f"{v:.6g}"


def main(old_path, new_path):
    table = rows(load(old_path), load(new_path))
    header = ("workload", "metric", "unit", "old", "new", "new/old")
    widths = [max(len(header[i]), *(len(_fmt(r[i]) if i >= 3 else r[i]) for r in table))
              for i in range(6)] if table else [len(h) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in table:
        cells = [r[0], r[1], r[2], _fmt(r[3]), _fmt(r[4]), _fmt(r[5])]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
