"""Seedable random MiniC program generation.

A :class:`ProgramGenerator` draws a small concurrent program from a seed:
2–3 threads (main races the forked ones), a handful of shared globals,
and thread bodies mixing stores, loads, CAS, fences, data-dependent
branches and bounded loops.  Programs are kept litmus-sized on purpose —
the differential oracles (:mod:`repro.fuzz.oracles`) need the exhaustive
schedule explorer to terminate on them.

The program is held *structurally* (statement trees per thread), not as
text: the delta-debugging shrinker edits the structure and re-renders,
which keeps every shrinking candidate a syntactically valid program.

Observability convention: each thread owns registers ``r0``/``r1``
(initialised to 0) that loads assign into, and returns ``r0 * 10 + r1``.
Generated store/CAS constants stay in 1..9, so the per-thread return
value is a faithful base-10 encoding of what the thread observed and the
tuple of thread results (tid order) is the program outcome the oracles
compare across memory models.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from ..ir.module import Module
from ..minic.lower import compile_source

#: Registers each thread observes (loads target these; the thread returns
#: their base-10 combination).
REGS_PER_THREAD = 2

#: Fence builtin spelling by kind tag.
_FENCE_CALLS = {"full": "fence", "ss": "fence_ss", "sl": "fence_sl"}


# ----------------------------------------------------------------------
# Statement tree

class Stmt:
    """Base class for generated statements.

    ``size`` counts MiniC statements (the shrinker's minimality metric);
    ``render`` appends source lines.
    """

    def size(self) -> int:
        return 1

    def render(self, out: List[str], indent: str, names: "_NameAlloc") -> None:
        raise NotImplementedError

    def clone(self) -> "Stmt":
        raise NotImplementedError


class StoreStmt(Stmt):
    """``VAR = value;``"""

    def __init__(self, var: str, value: int) -> None:
        self.var = var
        self.value = value

    def render(self, out, indent, names):
        out.append("%s%s = %d;" % (indent, self.var, self.value))

    def clone(self):
        return StoreStmt(self.var, self.value)


class LoadStmt(Stmt):
    """``rN = VAR;``"""

    def __init__(self, reg: int, var: str) -> None:
        self.reg = reg
        self.var = var

    def render(self, out, indent, names):
        out.append("%sr%d = %s;" % (indent, self.reg, self.var))

    def clone(self):
        return LoadStmt(self.reg, self.var)


class CasStmt(Stmt):
    """``cas(&VAR, expected, value);``"""

    def __init__(self, var: str, expected: int, value: int) -> None:
        self.var = var
        self.expected = expected
        self.value = value

    def render(self, out, indent, names):
        out.append("%scas(&%s, %d, %d);"
                   % (indent, self.var, self.expected, self.value))

    def clone(self):
        return CasStmt(self.var, self.expected, self.value)


class FenceStmt(Stmt):
    """``fence();`` / ``fence_ss();`` / ``fence_sl();``"""

    def __init__(self, kind: str) -> None:
        if kind not in _FENCE_CALLS:
            raise ValueError("fence kind must be full/ss/sl, got %r" % kind)
        self.kind = kind

    def render(self, out, indent, names):
        out.append("%s%s();" % (indent, _FENCE_CALLS[self.kind]))

    def clone(self):
        return FenceStmt(self.kind)


class IfStmt(Stmt):
    """``if (VAR == value) { body }`` — a data-dependent branch."""

    def __init__(self, var: str, value: int, body: List[Stmt]) -> None:
        self.var = var
        self.value = value
        self.body = body

    def size(self):
        return 1 + sum(s.size() for s in self.body)

    def render(self, out, indent, names):
        out.append("%sif (%s == %d) {" % (indent, self.var, self.value))
        for stmt in self.body:
            stmt.render(out, indent + "  ", names)
        out.append("%s}" % indent)

    def clone(self):
        return IfStmt(self.var, self.value, [s.clone() for s in self.body])


class LoopStmt(Stmt):
    """``for (int iN = 0; iN < count; iN = iN + 1) { body }``"""

    def __init__(self, count: int, body: List[Stmt]) -> None:
        self.count = count
        self.body = body

    def size(self):
        return 1 + sum(s.size() for s in self.body)

    def render(self, out, indent, names):
        var = names.loop_var()
        out.append("%sfor (int %s = 0; %s < %d; %s = %s + 1) {"
                   % (indent, var, var, self.count, var, var))
        for stmt in self.body:
            stmt.render(out, indent + "  ", names)
        out.append("%s}" % indent)

    def clone(self):
        return LoopStmt(self.count, [s.clone() for s in self.body])


class _NameAlloc:
    """Fresh loop-variable names during one render."""

    def __init__(self) -> None:
        self._next = 0

    def loop_var(self) -> str:
        name = "i%d" % self._next
        self._next += 1
        return name


# ----------------------------------------------------------------------
# Program

class FuzzProgram:
    """A generated concurrent program, held structurally.

    ``threads[0]`` is the main thread's racing body (between the forks
    and the joins); ``threads[1:]`` are the forked threads ``t1``, ``t2``.
    """

    def __init__(self, seed: int, global_vars: Sequence[str],
                 threads: Sequence[List[Stmt]]) -> None:
        if not threads:
            raise ValueError("a program needs at least the main thread")
        self.seed = seed
        self.global_vars = list(global_vars)
        self.threads = [list(body) for body in threads]

    # -- derived views -------------------------------------------------

    def source(self) -> str:
        """Render the program as MiniC source text."""
        lines: List[str] = []
        for var in self.global_vars:
            lines.append("int %s;" % var)
        lines.append("")
        for index, body in enumerate(self.threads[1:], start=1):
            lines.extend(self._thread_fn("t%d" % index, body))
            lines.append("")
        lines.extend(self._main_fn())
        return "\n".join(lines) + "\n"

    def _thread_fn(self, name: str, body: List[Stmt]) -> List[str]:
        lines = ["int %s() {" % name]
        lines.extend("  int r%d = 0;" % r for r in range(REGS_PER_THREAD))
        names = _NameAlloc()
        for stmt in body:
            stmt.render(lines, "  ", names)
        lines.append("  return %s;" % self._combo())
        lines.append("}")
        return lines

    def _main_fn(self) -> List[str]:
        lines = ["int main() {"]
        forked = range(1, len(self.threads))
        for index in forked:
            lines.append("  int h%d = fork(t%d);" % (index, index))
        lines.extend("  int r%d = 0;" % r for r in range(REGS_PER_THREAD))
        names = _NameAlloc()
        for stmt in self.threads[0]:
            stmt.render(lines, "  ", names)
        for index in forked:
            lines.append("  join(h%d);" % index)
        lines.append("  return %s;" % self._combo())
        lines.append("}")
        return lines

    @staticmethod
    def _combo() -> str:
        parts = []
        for reg in range(REGS_PER_THREAD):
            weight = 10 ** (REGS_PER_THREAD - 1 - reg)
            parts.append("r%d * %d" % (reg, weight) if weight > 1
                         else "r%d" % reg)
        return " + ".join(parts)

    def compile(self, name: Optional[str] = None) -> Module:
        return compile_source(self.source(),
                              name or ("fuzz_seed%d" % self.seed))

    def statement_count(self) -> int:
        """Total MiniC statements across all thread bodies."""
        return sum(stmt.size() for body in self.threads for stmt in body)

    def clone(self) -> "FuzzProgram":
        return FuzzProgram(self.seed, self.global_vars,
                           [[s.clone() for s in body]
                            for body in self.threads])

    def __repr__(self) -> str:
        return "<FuzzProgram seed=%d threads=%d stmts=%d>" % (
            self.seed, len(self.threads), self.statement_count())


# ----------------------------------------------------------------------
# Generator

#: Shared globals per program (``A``, ``B``, ...), drawn inclusively.
MIN_GLOBALS, MAX_GLOBALS = 2, 3

#: Probability that a program gets a third thread.
THREE_THREAD_PROB = 0.2

#: Shared-access budget per program, drawn inclusively.  The binding
#: constraint is not statement count but shared accesses: the exhaustive
#: explorer's path count is exponential in them (loop bodies multiply by
#: their trip count), so a thread's body stops when its share is spent.
#: Three-thread programs get the tighter ceiling, which keeps every
#: program explorable within the oracles' path budget.
MIN_ACCESSES = 4
MAX_ACCESSES = 5
MAX_ACCESSES_THREE_THREADS = 4

#: Length cap of one thread's top-level body.
MAX_STMTS_PER_BODY = 5

#: Probability of planting an sb/mp-shaped conflict skeleton before the
#: random tail.  Unbiased random programs rarely observe a reordering
#: (the right store/load pattern across threads is needed), which would
#: leave the synthesis-soundness oracle idle; the skeleton keeps
#: violating programs frequent.
RACY_SKELETON_PROB = 0.5

#: Relative weight of each top-level statement kind, in draw order.
KIND_WEIGHTS = (("store", 0.38), ("load", 0.34), ("fence", 0.10),
                ("cas", 0.08), ("if", 0.06), ("loop", 0.04))

#: Largest constant a store, CAS or branch condition uses.
MAX_CONST = 3


def _access_cost(stmt: Stmt) -> int:
    """Shared accesses one dynamic pass through *stmt* performs."""
    if isinstance(stmt, (StoreStmt, LoadStmt, CasStmt)):
        return 1
    if isinstance(stmt, FenceStmt):
        return 0
    if isinstance(stmt, IfStmt):
        # The condition load always runs; the body only sometimes — but
        # budget for the worst case.
        return 1 + sum(_access_cost(s) for s in stmt.body)
    if isinstance(stmt, LoopStmt):
        return stmt.count * sum(_access_cost(s) for s in stmt.body)
    raise TypeError("unknown statement %r" % (stmt,))


class ProgramGenerator:
    """Draws :class:`FuzzProgram` instances from seeds, deterministically.

    The same seed always yields the same program — the fuzzing
    campaign, CI, and a developer's shell all agree on what "seed 17"
    means.
    """

    def generate(self, seed: int) -> FuzzProgram:
        rng = random.Random(seed)
        n_globals = rng.randint(MIN_GLOBALS, MAX_GLOBALS)
        global_vars = [chr(ord("A") + i) for i in range(n_globals)]
        three = rng.random() < THREE_THREAD_PROB
        n_threads = 3 if three else 2
        ceiling = MAX_ACCESSES_THREE_THREADS if three else MAX_ACCESSES
        budget = rng.randint(MIN_ACCESSES, ceiling)
        threads: List[List[Stmt]] = [[] for _ in range(n_threads)]
        if rng.random() < RACY_SKELETON_PROB:
            budget -= self._plant_skeleton(rng, global_vars, threads)
        # Every thread gets at least one access — budget permitting: a
        # planted skeleton may already have spent the whole allowance,
        # and the access ceiling is a hard cap (exploration cost is
        # exponential in it), so late threads then stay empty.
        shares = [0] * n_threads
        for index, body in enumerate(threads):
            if not body and sum(shares) < budget:
                shares[index] = 1
        remaining = budget - sum(shares)
        for _ in range(max(0, remaining)):
            shares[rng.randrange(n_threads)] += 1
        for body, share in zip(threads, shares):
            body.extend(self._body(rng, global_vars, share))
        return FuzzProgram(seed, global_vars, threads)

    def _plant_skeleton(self, rng: random.Random,
                        global_vars: Sequence[str],
                        threads: List[List[Stmt]]) -> int:
        """Seed two threads with an sb- or mp-shaped conflict.

        Returns the access budget consumed.  The random tail appended
        afterwards can still mask the race — that variety is the point.
        """
        x, y = rng.sample(list(global_vars), 2)
        first, second = rng.sample(range(len(threads)), 2)
        value = rng.randint(1, MAX_CONST)
        if rng.random() < 0.5:
            # Store buffering: store own flag, read the other's.
            threads[first] += [StoreStmt(x, value), LoadStmt(0, y)]
            threads[second] += [StoreStmt(y, value), LoadStmt(0, x)]
        else:
            # Message passing: data then flag vs flag then data.
            threads[first] += [StoreStmt(x, value), StoreStmt(y, value)]
            threads[second] += [LoadStmt(0, y), LoadStmt(1, x)]
        return 4

    def programs(self, seed: int, count: int) -> Iterator[FuzzProgram]:
        """The campaign stream: programs for seeds ``seed..seed+count-1``."""
        for offset in range(count):
            yield self.generate(seed + offset)

    # ------------------------------------------------------------------

    def _body(self, rng: random.Random, global_vars: Sequence[str],
              budget: int) -> List[Stmt]:
        """Draw statements until the access budget (or length cap) runs out."""
        body: List[Stmt] = []
        while budget > 0 and len(body) < MAX_STMTS_PER_BODY:
            stmt = self._stmt(rng, global_vars, budget)
            body.append(stmt)
            budget -= _access_cost(stmt)
        return body

    def _stmt(self, rng: random.Random, global_vars: Sequence[str],
              budget: int) -> Stmt:
        kind = self._pick_kind(rng, budget)
        var = rng.choice(global_vars)
        if kind == "store":
            return StoreStmt(var, rng.randint(1, MAX_CONST))
        if kind == "load":
            return LoadStmt(rng.randrange(REGS_PER_THREAD), var)
        if kind == "cas":
            expected = rng.randint(0, 1)
            return CasStmt(var, expected, rng.randint(1, MAX_CONST))
        if kind == "fence":
            return FenceStmt(rng.choice(("full", "ss", "sl")))
        if kind == "if":
            # Condition costs 1 access; the body spends the rest.
            body = self._flat_body(rng, global_vars, budget - 1)
            return IfStmt(var, rng.randint(0, MAX_CONST), body)
        count = rng.randint(2, 3)
        body = self._flat_body(rng, global_vars, budget // count)
        return LoopStmt(count, body)

    def _flat_body(self, rng: random.Random, global_vars: Sequence[str],
                   budget: int) -> List[Stmt]:
        """A 1–2 statement nested body of simple (non-compound) statements."""
        length = 1 if budget <= 1 else rng.randint(1, 2)
        body = []
        for _ in range(length):
            kind = rng.choice(("store", "load", "fence"))
            var = rng.choice(global_vars)
            if kind == "store":
                body.append(StoreStmt(var, rng.randint(1, MAX_CONST)))
            elif kind == "load":
                body.append(LoadStmt(rng.randrange(REGS_PER_THREAD), var))
            else:
                body.append(FenceStmt(rng.choice(("full", "ss", "sl"))))
        return body

    def _pick_kind(self, rng: random.Random, budget: int) -> str:
        weights: List[Tuple[str, float]] = [
            (kind, weight) for kind, weight in KIND_WEIGHTS
            # Compound statements need headroom: an if costs 1 + body,
            # a loop multiplies its body by the trip count.
            if not (budget < 3 and kind in ("if", "loop"))]
        total = sum(weight for _, weight in weights)
        point = rng.random() * total
        for kind, weight in weights:
            point -= weight
            if point <= 0:
                return kind
        return weights[-1][0]
