"""Random client generation — exploring the paper's client dimension.

Section 6.4 of the paper stresses that the *client* is one of the four
evaluation dimensions: it must produce executions short enough to check
(witness search is exponential in history length) yet rich enough to
expose violations.  This module generates random-but-well-formed MiniC
clients for the container benchmarks, so the engine can be fuzzed across
many client shapes instead of the hand-written ones.

A generated client has the shape::

    int fuzz_client_k() {
      [init();]
      <pre-fork ops by main>
      int tid = fork(fuzz_worker_k);
      <concurrent ops by main>
      join(tid);
      <post-join ops by main>
      return 0;
    }

with a matching worker function.  Mutator arguments are globally unique
values (so duplicate returns are detectable); set keys draw from a small
domain (so operations actually collide).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .algorithms.base import AlgorithmBundle
from .ir.module import Module
from .minic.lower import compile_source


class OpShape:
    """How to emit one operation call.

    ``arg`` is "unique" (a globally unique value), "key" (drawn from a
    small domain) or None (no argument).
    """

    def __init__(self, name: str, arg: Optional[str] = None) -> None:
        self.name = name
        self.arg = arg


#: Operation shapes per algorithm family.
WSQ_SHAPES = [OpShape("put", "unique"), OpShape("take"), OpShape("steal")]
QUEUE_SHAPES = [OpShape("enqueue", "unique"), OpShape("dequeue")]
SET_SHAPES = [OpShape("add", "key"), OpShape("remove", "key"),
              OpShape("contains", "key")]

#: The small domain set keys draw from, so operations actually collide.
KEY_DOMAIN = (3, 5, 7)

#: (shapes, init function, owner-only ops) per known bundle name.
FAMILIES = {
    "chase_lev": (WSQ_SHAPES, None, ("put", "take")),
    "cilk_the": (WSQ_SHAPES, None, ("put", "take")),
    "fifo_wsq": (WSQ_SHAPES, None, ("put",)),
    "lifo_wsq": (WSQ_SHAPES, None, ()),
    "anchor_wsq": (WSQ_SHAPES, None, ("put", "take")),
    "fifo_iwsq": (WSQ_SHAPES, None, ("put", "take")),
    "lifo_iwsq": (WSQ_SHAPES, None, ("put", "take")),
    "anchor_iwsq": (WSQ_SHAPES, None, ("put", "take")),
    "ms2_queue": (QUEUE_SHAPES, "qinit", ()),
    "msn_queue": (QUEUE_SHAPES, "qinit", ()),
    "lazy_list": (SET_SHAPES, "sinit", ()),
    "harris_set": (SET_SHAPES, "sinit", ()),
}


class GeneratedClients:
    """The output of :func:`generate_clients`."""

    def __init__(self, module: Module, entries: Tuple[str, ...],
                 source: str) -> None:
        self.module = module
        self.entries = entries
        self.source = source


def generate_clients(bundle: AlgorithmBundle, count: int = 4,
                     ops_per_side: int = 3, seed: int = 0
                     ) -> GeneratedClients:
    """Generate *count* random clients for *bundle* and compile them.

    ``ops_per_side`` bounds the operations per program segment (pre-fork,
    worker, concurrent, post-join), keeping histories checkable.  Raises
    ``ValueError`` for bundles with no registered family (the allocator's
    malloc/free protocol needs dataflow and is not generated).
    """
    family = FAMILIES.get(bundle.name)
    if family is None:
        raise ValueError("no client family registered for %r" % bundle.name)
    shapes, init, owner_only = family
    rng = random.Random(seed)
    value_counter = [100]

    def emit_op(shape: OpShape, indent: str) -> str:
        if shape.arg == "unique":
            value_counter[0] += 1
            return "%s%s(%d);" % (indent, shape.name, value_counter[0])
        if shape.arg == "key":
            return "%s%s(%d);" % (indent, shape.name, rng.choice(KEY_DOMAIN))
        return "%s%s();" % (indent, shape.name)

    def emit_ops(allowed: List[OpShape], limit: int, indent: str) -> str:
        lines = []
        for _ in range(rng.randint(1, max(1, limit))):
            lines.append(emit_op(rng.choice(allowed), indent))
        return "\n".join(lines)

    thief_shapes = [s for s in shapes if s.name not in owner_only]
    pieces: List[str] = []
    entries: List[str] = []
    for k in range(count):
        worker_ops = emit_ops(thief_shapes or shapes, ops_per_side, "  ")
        pieces.append("void fuzz_worker_%d() {\n%s\n}" % (k, worker_ops))
        body: List[str] = []
        if init:
            body.append("  %s();" % init)
        if rng.random() < 0.7:
            body.append(emit_ops(shapes, ops_per_side, "  "))
        body.append("  int tid = fork(fuzz_worker_%d);" % k)
        if rng.random() < 0.9:
            body.append(emit_ops(shapes, ops_per_side, "  "))
        body.append("  join(tid);")
        if rng.random() < 0.4:
            body.append(emit_ops(shapes, ops_per_side, "  "))
        body.append("  return 0;")
        name = "fuzz_client_%d" % k
        entries.append(name)
        pieces.append("int %s() {\n%s\n}" % (name, "\n".join(body)))

    source = bundle.source + "\n\n// ---- generated clients ----\n" \
        + "\n\n".join(pieces)
    module = compile_source(source, bundle.name + "_fuzz")
    return GeneratedClients(module, tuple(entries), source)
