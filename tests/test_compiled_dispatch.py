"""Dispatch rate: the closure-compiled VM against the reference interpreter.

A register-arithmetic loop runs entirely inside ``run_local`` bursts, the
scheduler's hot path, so it measures steady-state dispatch with no
memory-model or scheduler work.  Both VMs must execute the same number
of instructions to the same result, and the compiled VM must take at
most half the interpreter's time (best of three runs each).  The gap is
wide (7-9x on a 2-CPU container with Python 3.11), so the bound
holds on a loaded machine too; perfbench's ``vm.dispatch_s`` tracks the
compiled VM's absolute cost end to end.
"""

import time

from repro.memory.models import make_model
from repro.minic import compile_source
from repro.vm.compile import CompiledVM
from tests.reference.interp_vm import InterpVM

HOT_LOOP = """
int main() {
  int acc = 0;
  int i = 0;
  while (i < 20000) {
    int a = i + 3;
    int b = a * 2;
    int c = b - i;
    acc = acc + c;
    i = i + 1;
  }
  return acc;
}
"""

REPS = 3


def _run(vm_class, module):
    """One full hot-loop execution; returns (wall_s, steps, result)."""
    vm = vm_class(module, make_model("sc"), max_steps=10_000_000)
    start = time.perf_counter()
    while True:
        enabled = vm.enabled_tids()
        if not enabled:
            break
        tid = enabled[0]
        if not vm.run_local(tid, 4096):
            vm.step(tid)
    return time.perf_counter() - start, vm.steps, vm.threads[0].result


def test_compiled_dispatch_at_least_twice_the_interpreter():
    module = compile_source(HOT_LOOP, "hot_loop")
    interp = min(_run(InterpVM, module) for _ in range(REPS))
    compiled = min(_run(CompiledVM, module) for _ in range(REPS))
    assert compiled[1:] == interp[1:]
    assert compiled[0] * 2 <= interp[0], (compiled[0], interp[0])
