#!/usr/bin/env python
"""Explore relaxed-memory behaviours with classic litmus tests.

Runs the two canonical litmus tests many times under SC, TSO and PSO and
tabulates the observed outcomes:

* **SB** (store buffering / Dekker): both threads store then load the
  other's flag.  ``r1 = r2 = 0`` is impossible under SC, appears under
  TSO and PSO (loads bypass buffered stores).
* **MP** (message passing): writer stores DATA then FLAG; reader spins on
  FLAG then loads DATA.  ``DATA = 0`` at the reader is impossible under
  SC *and* TSO (stores stay ordered), appears under PSO only.

This is the behaviour matrix that motivates the whole fence-synthesis
problem.  Run:  python examples/memory_model_explorer.py
"""

from collections import Counter

from repro.memory import make_model
from repro.minic import compile_source
from repro.sched import FlushDelayScheduler
from repro.vm import make_vm

SB = """
int X; int Y;
int R1; int R2;

void t1() {
  X = 1;
  R1 = Y;
}

int main() {
  int t = fork(t1);
  Y = 1;
  R2 = X;
  join(t);
  return 0;
}
"""

MP = """
int DATA; int FLAG;
int OUT;

void reader() {
  while (FLAG == 0) {}
  OUT = DATA;
}

int main() {
  int t = fork(reader);
  DATA = 1;
  FLAG = 1;
  join(t);
  return 0;
}
"""


def observe(source, globals_to_read, runs=400, flush_prob=0.25):
    module = compile_source(source)
    table = {}
    for model_name in ("sc", "tso", "pso"):
        outcomes = Counter()
        for seed in range(runs):
            vm = make_vm(module, make_model(model_name))
            FlushDelayScheduler(seed=seed, flush_prob=flush_prob).run(vm)
            values = tuple(vm.memory.read(vm.memory.global_addr[g])
                           for g in globals_to_read)
            outcomes[values] += 1
        table[model_name] = outcomes
    return table


def report(title, globals_to_read, table, forbidden):
    print("=" * 64)
    print(title)
    print("=" * 64)
    header = ", ".join(globals_to_read)
    for model_name, outcomes in table.items():
        print("%s:" % model_name.upper())
        for values, count in sorted(outcomes.items()):
            marker = "   <-- relaxed behaviour" if values in forbidden else ""
            print("   (%s) = %-10s x%d%s"
                  % (header, values, count, marker))
    print()


def main():
    sb = observe(SB, ("R1", "R2"))
    report("SB / Dekker: X=1; r1=Y  ||  Y=1; r2=X", ("R1", "R2"), sb,
           forbidden={(0, 0)})
    assert (0, 0) not in sb["sc"], "SC must forbid r1=r2=0"

    mp = observe(MP, ("OUT",))
    report("MP / message passing: DATA=1; FLAG=1  ||  spin(FLAG); OUT=DATA",
           ("OUT",), mp, forbidden={(0,)})
    assert (0,) not in mp["sc"] and (0,) not in mp["tso"], \
        "only PSO may lose the data/flag ordering"

    print("Summary: SB breaks on TSO and PSO; MP breaks only on PSO — "
          "matching the models' allowed reorderings.")


if __name__ == "__main__":
    main()
