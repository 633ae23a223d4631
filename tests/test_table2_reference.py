"""The perfbench Table-2 references, reproduced on the reference VM.

``perfbench/reference/table2.json`` holds, per synthesis seed, every
Table-2 row's outcome and fence locations; perfbench checks each run of
the compiled VM against it.  This test regenerates one seed of it on the
generic interpreter (``tests/reference/interp_vm.py``), with the
executions per round and round limit the file records, so the committed
verdicts stay backed by the audited backend.
"""

import json
import os

import pytest

from repro.algorithms import ALGORITHMS
from repro.synth import SynthesisConfig, SynthesisEngine

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "reference", "table2.json")
SEED = "1"


@pytest.mark.slow
def test_interpreter_reproduces_table2_reference(reference_vm):
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    expected = reference["seeds"][SEED]
    rows = {}
    with reference_vm():
        for name, bundle in ALGORITHMS.items():
            kind = bundle.supports[-1]
            for model in ("tso", "pso"):
                config = SynthesisConfig(
                    memory_model=model, flush_prob=bundle.flush_prob[model],
                    executions_per_round=reference["K"],
                    max_rounds=reference["max_rounds"], seed=int(SEED))
                result = SynthesisEngine(config).synthesize(
                    bundle.compile(), bundle.spec(kind),
                    entries=bundle.entries, operations=bundle.operations)
                rows["/".join((name, kind, model))] = {
                    "outcome": result.outcome.value,
                    "fences": result.fence_locations()}
    assert len(rows) == 26
    assert rows == expected
