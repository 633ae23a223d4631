"""Unit tests for shared memory layout and memory-safety metadata."""

import pytest

from repro.ir import GlobalVar, Module
from repro.vm import MemorySafetyViolation, NULL_GUARD, SharedMemory


def memory_with(*globals_):
    module = Module()
    for var in globals_:
        module.add_global(var)
    return SharedMemory(module)


class TestLayout:
    def test_globals_get_distinct_addresses(self):
        mem = memory_with(GlobalVar("A"), GlobalVar("B", 4), GlobalVar("C"))
        a, b, c = mem.global_addr["A"], mem.global_addr["B"], mem.global_addr["C"]
        assert a < b < c
        assert b >= a + 1
        assert c >= b + 4

    def test_initializers_applied(self):
        mem = memory_with(GlobalVar("A", 3, [7, 8]))
        base = mem.global_addr["A"]
        assert mem.read(base) == 7
        assert mem.read(base + 1) == 8
        assert mem.read(base + 2) == 0

    def test_addresses_start_past_null_guard(self):
        mem = memory_with(GlobalVar("A"))
        assert mem.global_addr["A"] >= NULL_GUARD


class TestPageAlloc:
    def test_regions_are_two_aligned(self):
        mem = memory_with(GlobalVar("pad"))
        for size in (1, 2, 3, 5):
            base = mem.pagealloc(size)
            assert base % 2 == 0

    def test_cells_zeroed(self):
        mem = memory_with()
        base = mem.pagealloc(4)
        assert all(mem.read(base + i) == 0 for i in range(4))

    def test_non_positive_size_rejected(self):
        mem = memory_with()
        with pytest.raises(MemorySafetyViolation):
            mem.pagealloc(0)

    def test_regions_do_not_overlap(self):
        mem = memory_with()
        spans = []
        for size in (3, 1, 8):
            base = mem.pagealloc(size)
            spans.append((base, base + size))
        spans.sort()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2


class TestValidity:
    def test_globals_valid(self):
        mem = memory_with(GlobalVar("A", 3))
        base = mem.global_addr["A"]
        assert mem.is_valid(base)
        assert mem.is_valid(base + 2)

    def test_out_of_bounds_invalid(self):
        mem = memory_with(GlobalVar("A", 3))
        base = mem.global_addr["A"]
        assert not mem.is_valid(base + 3)

    def test_null_and_guard_page_invalid(self):
        mem = memory_with(GlobalVar("A"))
        for addr in range(NULL_GUARD):
            assert not mem.is_valid(addr)

    def test_check_raises_with_context(self):
        mem = memory_with()
        with pytest.raises(MemorySafetyViolation, match="NULL"):
            mem.check(0, "load", tid=1, label=42)
        with pytest.raises(MemorySafetyViolation, match="out-of-bounds"):
            mem.check(10 ** 6, "load", tid=1, label=42)


class TestPageFree:
    def test_freed_region_becomes_invalid(self):
        mem = memory_with()
        base = mem.pagealloc(4)
        mem.pagefree(base)
        assert not mem.is_valid(base)
        assert not mem.is_valid(base + 3)

    def test_free_of_non_base_rejected(self):
        mem = memory_with()
        base = mem.pagealloc(4)
        with pytest.raises(MemorySafetyViolation):
            mem.pagefree(base + 1)

    def test_double_free_rejected(self):
        mem = memory_with()
        base = mem.pagealloc(4)
        mem.pagefree(base)
        with pytest.raises(MemorySafetyViolation):
            mem.pagefree(base)

    def test_other_regions_survive_free(self):
        mem = memory_with()
        a = mem.pagealloc(2)
        b = mem.pagealloc(2)
        mem.pagefree(a)
        assert mem.is_valid(b)
        assert list(mem.live_regions()) == [(b, 2)]
