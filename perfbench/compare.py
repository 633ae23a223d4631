"""``--compare OLD.json NEW.json``: per-workload metric deltas.

Both files are results files written by ``run.py``.  Two tables are
printed, end-to-end then per-layer, with one row per workload and one
column per metric.  A cell is the relative change from OLD to NEW
(``+4.2%``); when OLD is 0 it is the absolute change (``+=3``), and
``.`` marks a metric that did not change.
"""

from __future__ import annotations

import json
from typing import Dict, List


def _load(path: str) -> Dict[str, dict]:
    with open(path) as handle:
        return json.load(handle)["workloads"]


def _cell(old, new) -> str:
    if old is None or new is None:
        return "n/a"
    if old == new:
        return "."
    if old == 0:
        return "+=%.4g" % new
    return "%+.1f%%" % (100.0 * (new - old) / abs(old))


def _table(section: str, old: Dict[str, dict], new: Dict[str, dict]) -> str:
    workloads = sorted(set(old) | set(new))
    names: List[str] = []
    for entry in list(old.values()) + list(new.values()):
        for name in entry.get(section, {}):
            if name not in names:
                names.append(name)
    if not names:
        return "%s: no metrics in either file" % section
    rows = [["workload"] + names]
    for workload in workloads:
        before = old.get(workload, {}).get(section, {})
        after = new.get(workload, {}).get(section, {})
        rows.append([workload] + [_cell(before.get(n), after.get(n))
                                  for n in names])
    widths = [max(len(row[i]) for row in rows) for i in range(len(names) + 1)]
    lines = ["%s (OLD -> NEW)" % section]
    for row in rows:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)))
    return "\n".join(lines)


def compare(old_path: str, new_path: str) -> str:
    old, new = _load(old_path), _load(new_path)
    return "\n\n".join(_table(section, old, new)
                       for section in ("end_to_end", "per_layer"))
