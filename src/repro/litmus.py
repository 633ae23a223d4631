"""A catalog of classic litmus tests with exact per-model outcome sets.

Each :class:`LitmusTest` carries MiniC source whose thread return values
are the observed registers, plus the *exact* set of outcomes each memory
model admits (verified exhaustively in tests/test_litmus_catalog.py via
the schedule explorer).  The catalog doubles as executable documentation
of what SC, TSO and PSO each allow:

============  ===========================  ====  ====  ====
name          relaxation observed          SC    TSO   PSO
============  ===========================  ====  ====  ====
sb            store -> load reorder        no    yes   yes
mp            store -> store reorder       no    no    yes
lb            load -> store reorder        no    no    no
corr          same-location read reorder   no    no    no
coww          same-location write order    no    no    no
corw          read-own-write forwarding    no    no    no
2+2w          store -> store reorder (x2)  no    no    yes
sb_fenced     sb with st-ld fences         no    no    no
sb_one_fence  sb fenced in one thread      no    yes   yes
mp_fenced     mp with a st-st fence        no    no    no
============  ===========================  ====  ====  ====

(Store buffers never reorder load->load/load->store or break
per-location coherence, hence the permanent "no" rows.  The
sb_one_fence row is the cautionary one: fencing only one side of a
Dekker race fixes nothing — both store->load pairs must be ordered.)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from .minic.lower import compile_source
from .vm.driver import thread_results


class LitmusTest:
    """One litmus test: program + exact expected outcomes per model.

    Outcomes are tuples of every thread's return value in tid order
    (tid 0 is main).
    """

    def __init__(self, name: str, description: str, source: str,
                 expected: Dict[str, FrozenSet[Tuple[int, ...]]],
                 relaxed_outcome: Tuple[int, ...]) -> None:
        self.name = name
        self.description = description
        self.source = source
        self.expected = expected
        #: The outcome that distinguishes relaxed from SC behaviour.
        self.relaxed_outcome = relaxed_outcome

    def compile(self):
        return compile_source(self.source, "litmus_" + self.name)

    def explore(self, model: str, max_paths: int = 60_000):
        """Exhaustively enumerate this test's outcomes under *model*."""
        from .sched.explorer import explore
        return explore(self.compile(), model, outcome_fn=thread_results,
                       max_paths=max_paths)

    def models_allowing_relaxation(self):
        return sorted(model for model, outcomes in self.expected.items()
                      if self.relaxed_outcome in outcomes)

    def __repr__(self) -> str:
        return "<LitmusTest %s>" % self.name


def _outcomes(*tuples) -> FrozenSet[Tuple[int, ...]]:
    return frozenset(tuples)


_SB_SOURCE = """
int X; int Y;
int t1() { X = 1; int r = Y; return r; }
int main() {
  int t = fork(t1);
  Y = 1;
  int r = X;
  join(t);
  return r;
}
"""

_SB_FENCED_SOURCE = """
int X; int Y;
int t1() { X = 1; fence_sl(); int r = Y; return r; }
int main() {
  int t = fork(t1);
  Y = 1;
  fence_sl();
  int r = X;
  join(t);
  return r;
}
"""

_MP_SOURCE = """
int D; int F;
int reader() {
  if (F == 1) { return D; }
  return 9;
}
int main() {
  int t = fork(reader);
  D = 1; F = 1;
  join(t);
  return 0;
}
"""

_MP_FENCED_SOURCE = """
int D; int F;
int reader() {
  if (F == 1) { return D; }
  return 9;
}
int main() {
  int t = fork(reader);
  D = 1;
  fence_ss();
  F = 1;
  join(t);
  return 0;
}
"""

_LB_SOURCE = """
int X; int Y;
int t1() { int r = X; Y = 1; return r; }
int main() {
  int t = fork(t1);
  int r = Y;
  X = 1;
  join(t);
  return r;
}
"""

_CORR_SOURCE = """
int X;
int reader() {
  int a = X;
  int b = X;
  return a * 10 + b;      // 10 would mean X went backwards
}
int main() {
  int t = fork(reader);
  X = 1;
  join(t);
  return 0;
}
"""

_SB_ONE_FENCE_SOURCE = """
int X; int Y;
int t1() { X = 1; fence_sl(); int r = Y; return r; }
int main() {
  int t = fork(t1);
  Y = 1;
  int r = X;
  join(t);
  return r;
}
"""

_TWO_PLUS_TWO_W_SOURCE = """
int X; int Y;
int t1() { X = 1; Y = 2; fence(); return 0; }
int main() {
  int t = fork(t1);
  Y = 1;
  X = 2;
  fence();
  join(t);
  int r0 = X;
  int r1 = Y;
  return r0 * 10 + r1;
}
"""

_COWW_SOURCE = """
int X;
int writer() { X = 1; X = 2; fence(); return 0; }
int main() {
  int t = fork(writer);
  int a = X;
  join(t);
  int b = X;
  return a * 10 + b;
}
"""

_CORW_SOURCE = """
int X;
int t1() { X = 1; return 0; }
int main() {
  int t = fork(t1);
  int r0 = X;
  X = 1;
  int r1 = X;
  join(t);
  return r0 * 10 + r1;
}
"""

_SB_ALL = _outcomes((0, 1), (1, 0), (1, 1))
_SB_RELAXED = _outcomes((0, 0), (0, 1), (1, 0), (1, 1))
_MP_SC = _outcomes((0, 1), (0, 9))
_MP_RELAXED = _outcomes((0, 0), (0, 1), (0, 9))
_LB_SC = _outcomes((0, 0), (0, 1), (1, 0))
_CORR_OK = _outcomes((0, 0), (0, 1), (0, 11))
#: 2+2w: both final values 1 means both threads' first store committed
#: last — a store->store reorder on *each* side, so PSO-only.  (Both
#: threads fence before main's post-join reads, so the finals are
#: committed values, never buffered ones.)
_2P2W_SC = _outcomes((12, 0), (21, 0), (22, 0))
_2P2W_RELAXED = _2P2W_SC | _outcomes((11, 0))
#: coww: the racing read a sees 0, 1 or 2; the post-join read b always
#: sees the final 2 — writes to one location commit in program order.
_COWW_OK = _outcomes((2, 0), (12, 0), (22, 0))
#: corw: the read after main's own ``X = 1`` must see it (forwarding),
#: so r1 is always 1; only the earlier racing read r0 varies.
_CORW_OK = _outcomes((1, 0), (11, 0))

#: The catalog, keyed by short name.
LITMUS_TESTS: Dict[str, LitmusTest] = {
    "sb": LitmusTest(
        "sb",
        "Store buffering (Dekker): both threads store, then load the "
        "other's variable; (0, 0) needs a store->load reorder.",
        _SB_SOURCE,
        {"sc": _SB_ALL, "tso": _SB_RELAXED, "pso": _SB_RELAXED},
        relaxed_outcome=(0, 0)),
    "sb_fenced": LitmusTest(
        "sb_fenced",
        "SB with store-load fences: SC behaviour restored everywhere.",
        _SB_FENCED_SOURCE,
        {"sc": _SB_ALL, "tso": _SB_ALL, "pso": _SB_ALL},
        relaxed_outcome=(0, 0)),
    "mp": LitmusTest(
        "mp",
        "Message passing: data then flag; reading the flag but stale "
        "data ((0, 0)) needs a store->store reorder.",
        _MP_SOURCE,
        {"sc": _MP_SC, "tso": _MP_SC, "pso": _MP_RELAXED},
        relaxed_outcome=(0, 0)),
    "mp_fenced": LitmusTest(
        "mp_fenced",
        "MP with a store-store fence between data and flag.",
        _MP_FENCED_SOURCE,
        {"sc": _MP_SC, "tso": _MP_SC, "pso": _MP_SC},
        relaxed_outcome=(0, 0)),
    "lb": LitmusTest(
        "lb",
        "Load buffering: load then store in each thread; (1, 1) needs a "
        "load->store reorder, which store buffers never produce.",
        _LB_SOURCE,
        {"sc": _LB_SC, "tso": _LB_SC, "pso": _LB_SC},
        relaxed_outcome=(1, 1)),
    "corr": LitmusTest(
        "corr",
        "Coherence of read-read: two reads of one location must not go "
        "backwards (outcome 10), on any model.",
        _CORR_SOURCE,
        {"sc": _CORR_OK, "tso": _CORR_OK, "pso": _CORR_OK},
        relaxed_outcome=(0, 10)),
    "coww": LitmusTest(
        "coww",
        "Coherence of write-write: one thread stores 1 then 2 to X; the "
        "final value is 2 on every model — same-location stores never "
        "reorder (a final 1 would show as outcome 1/11/21).",
        _COWW_SOURCE,
        {"sc": _COWW_OK, "tso": _COWW_OK, "pso": _COWW_OK},
        relaxed_outcome=(21, 0)),
    "corw": LitmusTest(
        "corw",
        "Coherence of read-own-write: a load after the thread's own "
        "store to X must see it via buffer forwarding (r1 is always 1; "
        "outcome 0/10 would mean the store was invisible to its own "
        "thread).",
        _CORW_SOURCE,
        {"sc": _CORW_OK, "tso": _CORW_OK, "pso": _CORW_OK},
        relaxed_outcome=(0, 0)),
    "2+2w": LitmusTest(
        "2+2w",
        "Two threads each store to both variables in opposite orders "
        "(X=1;Y=2 vs Y=1;X=2); both finals 1 (outcome 11) needs a "
        "store->store reorder in each thread, so PSO only.",
        _TWO_PLUS_TWO_W_SOURCE,
        {"sc": _2P2W_SC, "tso": _2P2W_SC, "pso": _2P2W_RELAXED},
        relaxed_outcome=(11, 0)),
    "sb_one_fence": LitmusTest(
        "sb_one_fence",
        "SB with a store-load fence in only one thread: the unfenced "
        "side can still defer its store past its load, so (0, 0) "
        "survives under TSO and PSO — half a fix is no fix.",
        _SB_ONE_FENCE_SOURCE,
        {"sc": _SB_ALL, "tso": _SB_RELAXED, "pso": _SB_RELAXED},
        relaxed_outcome=(0, 0)),
}
