"""Regenerate the reference verdicts in ``perfbench/reference/``.

Runs on the generic interpreter (``REPRO_NO_COMPILE=1``), the audited
reference backend, so the benchmark's default compiled backend is
checked against it::

    python3 perfbench/make_reference.py            # both files
    python3 perfbench/make_reference.py table2     # one of them

``table2.json`` holds, for every synthesis seed the benchmark uses, each
row's outcome and fence locations.  ``fuzz.json`` holds, for every
program seed, the relaxed models whose outcomes exceed SC; a seed whose
oracles fail or end inconclusive would be no workload on which nothing
fails, so it is listed under ``excluded`` with the reason instead.
"""

from __future__ import annotations

import json
import os
import sys

os.environ["REPRO_NO_COMPILE"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

#: Synthesis seeds of ``table2-synth`` / ``table2-synth-j2``.
SYNTH_SEEDS = range(1, 9)
#: Candidate program seeds of ``fuzz-campaign``.
PROGRAM_SEEDS = range(0, 200)


def write(name: str, data: dict) -> None:
    path = os.path.join(workloads.REFERENCE_DIR, name)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote", path)


def table2() -> None:
    seeds = {}
    for synth_seed in SYNTH_SEEDS:
        rows = {}
        for row in workloads.table2_rows():
            record = workloads.synthesize_row(row, synth_seed)
            rows[workloads.row_id(row)] = {"outcome": record["outcome"],
                                           "fences": record["fences"]}
        seeds[str(synth_seed)] = rows
        print("synthesis seed", synth_seed, "done", flush=True)
    write("table2.json", {"K": workloads.K,
                          "max_rounds": workloads.MAX_ROUNDS,
                          "backend": "interpreter", "seeds": seeds})


def fuzz() -> None:
    seeds, excluded = {}, {}
    for program_seed in PROGRAM_SEEDS:
        record = workloads.fuzz_program(program_seed)
        if record["failures"] or record["inconclusive"]:
            excluded[str(program_seed)] = (record["failures"]
                                           + record["inconclusive"])
        else:
            seeds[str(program_seed)] = record["violating_models"]
    write("fuzz.json", {"backend": "interpreter", "seeds": seeds,
                        "excluded": excluded})


if __name__ == "__main__":
    chosen = sys.argv[1:] or ["table2", "fuzz"]
    for name in chosen:
        {"table2": table2, "fuzz": fuzz}[name]()
