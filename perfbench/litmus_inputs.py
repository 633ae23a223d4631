"""Store-buffering rings with 3 and 4 threads, and their outcome sets.

Thread ``i`` stores 1 to its own variable, then loads the variable its
ring neighbour stores to, and returns what it read.  Main is thread 0
and forks the others in order, so an outcome is the tuple of values the
threads read, in tid order (main first).

Expected outcomes, derived by hand:

* **SC: every tuple except all zeros.**  Thread ``i`` reads 0 only if its
  load runs before its neighbour ``i+1``'s store, and in program order
  each thread's store runs before its own load.  If every thread read 0,
  these orders would form a cycle around the ring
  (store_0 < load_0 < store_1 < load_1 < ... < load_n < store_0), which no
  interleaving satisfies.  Any other tuple is reachable: in its ordering
  graph a thread that read 1 has a load with no outgoing edge, which
  breaks the ring, so the graph is acyclic and some interleaving
  respects it.
* **TSO and PSO: all 2^N tuples.**  Each model allows every SC outcome,
  and also all zeros: every store waits in its thread's buffer while
  every load reads the initial 0 from memory.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Tuple

Outcomes = FrozenSet[Tuple[int, ...]]

SB3_SOURCE = """
int X; int Y; int Z;
int t1() { Y = 1; int r = Z; return r; }
int t2() { Z = 1; int r = X; return r; }
int main() {
  int a = fork(t1);
  int b = fork(t2);
  X = 1;
  int r = Y;
  join(a);
  join(b);
  return r;
}
"""

SB4_SOURCE = """
int W; int X; int Y; int Z;
int t1() { X = 1; int r = Y; return r; }
int t2() { Y = 1; int r = Z; return r; }
int t3() { Z = 1; int r = W; return r; }
int main() {
  int a = fork(t1);
  int b = fork(t2);
  int c = fork(t3);
  W = 1;
  int r = X;
  join(a);
  join(b);
  join(c);
  return r;
}
"""


def ring_outcomes(threads: int) -> Dict[str, Outcomes]:
    """Expected outcome sets of an N-thread store-buffering ring."""
    every = frozenset(itertools.product((0, 1), repeat=threads))
    sc = every - {(0,) * threads}
    return {"sc": sc, "tso": every, "pso": every}


#: name -> (MiniC source, expected outcomes per model).
RINGS = {
    "sb3": (SB3_SOURCE, ring_outcomes(3)),
    "sb4": (SB4_SOURCE, ring_outcomes(4)),
}
