"""Unit tests for the fence insertion and merge passes."""

from repro.ir import Const, FenceKind, GlobalVar, IRBuilder, Module, Reg, Sym
from repro.ir.instructions import Fence
from repro.ir.passes import (
    insert_fence_after,
    merge_redundant_fences,
    module_stats,
)


def fences_in(module):
    return [i for fn in module.functions.values() for i in fn
            if isinstance(i, Fence)]


def make_module(emit):
    m = Module()
    m.add_global(GlobalVar("X"))
    m.add_global(GlobalVar("Y"))
    b = IRBuilder(m, "f")
    emit(b)
    if not b._pending or not b._pending[-1].is_terminator():
        b.ret()
    b.finish()
    return m


class TestInsertFenceAfter:
    def test_basic_insertion(self):
        m = make_module(lambda b: b.store(Const(1), Sym("X")))
        store = m.function("f").body[0]
        fence = insert_fence_after(m, store.label, FenceKind.ST_ST)
        assert fence is not None
        assert m.function("f").body[1] is fence
        assert fence.synthesized

    def test_skips_when_subsuming_fence_follows(self):
        def emit(b):
            b.store(Const(1), Sym("X"))
            b.fence(FenceKind.FULL)
        m = make_module(emit)
        store = m.function("f").body[0]
        assert insert_fence_after(m, store.label, FenceKind.ST_ST) is None

    def test_inserts_when_following_fence_is_weaker(self):
        def emit(b):
            b.store(Const(1), Sym("X"))
            b.fence(FenceKind.ST_ST)
        m = make_module(emit)
        store = m.function("f").body[0]
        fence = insert_fence_after(m, store.label, FenceKind.ST_LD)
        assert fence is not None
        assert fence.kind is FenceKind.ST_LD


class TestMergeRedundantFences:
    def test_back_to_back_fences_merged(self):
        def emit(b):
            b.store(Const(1), Sym("X"))
            b.fence(FenceKind.FULL)
            b.fence(FenceKind.ST_ST)
        m = make_module(emit)
        removed = merge_redundant_fences(m)
        assert removed == 1
        assert len(fences_in(m)) == 1
        assert fences_in(m)[0].kind is FenceKind.FULL

    def test_store_between_fences_blocks_merge(self):
        def emit(b):
            b.fence(FenceKind.ST_ST)
            b.store(Const(1), Sym("X"))
            b.fence(FenceKind.ST_ST)
        m = make_module(emit)
        assert merge_redundant_fences(m) == 0
        assert len(fences_in(m)) == 2

    def test_load_between_fences_does_not_block_merge(self):
        def emit(b):
            b.fence(FenceKind.FULL)
            b.load(Reg("r"), Sym("X"))
            b.fence(FenceKind.ST_LD)
        m = make_module(emit)
        assert merge_redundant_fences(m) == 1

    def test_cas_counts_as_store(self):
        def emit(b):
            b.fence(FenceKind.FULL)
            b.cas(Reg("ok"), Sym("X"), Const(0), Const(1))
            b.fence(FenceKind.FULL)
        m = make_module(emit)
        assert merge_redundant_fences(m) == 0

    def test_merge_requires_all_paths_covered(self):
        # Fence after a join point where only one branch has a fence
        # must NOT be removed.
        def emit(b):
            then_l = b.block_label()
            else_l = b.block_label()
            end_l = b.block_label()
            b.cbr(Const(1), then_l, else_l)
            b.bind(then_l)
            b.fence(FenceKind.FULL)
            b.br(end_l)
            b.bind(else_l)
            b.const(Reg("x"), 0)
            b.br(end_l)
            b.bind(end_l)
            b.fence(FenceKind.FULL)
            b.ret()
        m = make_module(emit)
        assert merge_redundant_fences(m) == 0
        assert len(fences_in(m)) == 2

    def test_merge_when_both_paths_fenced(self):
        def emit(b):
            then_l = b.block_label()
            else_l = b.block_label()
            end_l = b.block_label()
            b.cbr(Const(1), then_l, else_l)
            b.bind(then_l)
            b.fence(FenceKind.FULL)
            b.br(end_l)
            b.bind(else_l)
            b.fence(FenceKind.FULL)
            b.br(end_l)
            b.bind(end_l)
            b.fence(FenceKind.ST_ST)
            b.ret()
        m = make_module(emit)
        assert merge_redundant_fences(m) == 1
        assert len(fences_in(m)) == 2

    def test_loop_keeps_fence_that_follows_store_around_backedge(self):
        # In a loop body "store X; fence", the fence is needed on every
        # iteration, because the store precedes it on the back edge path.
        def emit(b):
            head = b.block_label()
            out = b.block_label()
            b.bind(head)
            b.store(Const(1), Sym("X"))
            b.fence(FenceKind.ST_ST)
            b.cbr(Reg("c"), head, out)
            b.bind(out)
            b.ret()
        m = make_module(emit)
        assert merge_redundant_fences(m) == 0


class TestModuleStats:
    def test_counts(self):
        def emit(b):
            b.store(Const(1), Sym("X"))
            b.cas(Reg("ok"), Sym("Y"), Const(0), Const(1))
            b.fence(FenceKind.FULL)
        m = make_module(emit)
        m.source = "// comment\n\nint x;\nvoid f() {}\n"
        stats = module_stats(m)
        assert stats["insertion_points"] == 1
        assert stats["cas_count"] == 1
        assert stats["fence_count"] == 1
        assert stats["source_loc"] == 2  # comment and blank line skipped
        assert stats["bytecode_loc"] == len(m.function("f").body)
        assert stats["global_cells"] == 2
