"""Functional (sequential) behaviour of the benchmark algorithms.

Each algorithm's MiniC source is extended with a deterministic test
client and run single-threaded: the data structure must behave exactly
like its sequential specification.  This separates "the algorithm is
implemented correctly" from "the engine finds its fences".
"""

import pytest

from repro.algorithms import ALGORITHMS
from repro.memory import make_model
from repro.minic import compile_source
from repro.vm import make_vm

from tests.reference.round_robin import RoundRobinScheduler


def run_client(bundle_name, client_source, entry="seqtest"):
    bundle = ALGORITHMS[bundle_name]
    module = compile_source(bundle.source + client_source,
                            bundle_name + "_behaviour")
    vm = make_vm(module, make_model("sc"), entry=entry)
    RoundRobinScheduler().run(vm)
    assert vm.all_finished()
    return vm.threads[0].result


class TestWSQSequential:
    CLIENT = """
    int seqtest() {
      put(1); put(2); put(3);
      int a = take();          // 3 (tail)
      int b = steal();         // 1 (head)
      int c = take();          // 2
      int d = take();          // EMPTY
      return (a == 3) + (b == 1) * 10 + (c == 2) * 100
           + (d == EMPTY) * 1000;
    }
    """

    @pytest.mark.parametrize("name", ["chase_lev", "cilk_the",
                                      "anchor_wsq"])
    def test_deque_semantics(self, name):
        assert run_client(name, self.CLIENT) == 1111

    def test_lifo_wsq(self):
        client = """
        int seqtest() {
          put(1); put(2);
          int a = steal();       // 2 (top)
          int b = take();        // 1 (top)
          int c = steal();       // EMPTY
          return (a == 2) + (b == 1) * 10 + (c == EMPTY) * 100;
        }
        """
        assert run_client("lifo_wsq", client) == 111

    def test_fifo_wsq(self):
        client = """
        int seqtest() {
          put(1); put(2); put(3);
          int a = take();        // 1 (head)
          int b = steal();       // 2 (head)
          int c = take();        // 3
          return (a == 1) + (b == 2) * 10 + (c == 3) * 100;
        }
        """
        assert run_client("fifo_wsq", client) == 111

    @pytest.mark.parametrize("name", ["lifo_iwsq"])
    def test_lifo_iwsq(self, name):
        client = """
        int seqtest() {
          put(5); put(6);
          int a = take();        // 6
          int b = steal();       // 5
          int c = take();        // EMPTY
          return (a == 6) + (b == 5) * 10 + (c == EMPTY) * 100;
        }
        """
        assert run_client(name, client) == 111

    def test_fifo_iwsq(self):
        client = """
        int seqtest() {
          put(5); put(6);
          int a = take();        // 5 (head)
          int b = steal();       // 6
          int c = steal();       // EMPTY
          return (a == 5) + (b == 6) * 10 + (c == EMPTY) * 100;
        }
        """
        assert run_client("fifo_iwsq", client) == 111

    def test_anchor_iwsq(self):
        client = """
        int seqtest() {
          put(5); put(6); put(7);
          int a = take();        // 7 (tail)
          int b = steal();       // 5 (head)
          return (a == 7) + (b == 5) * 10;
        }
        """
        assert run_client("anchor_iwsq", client) == 11


class TestQueuesSequential:
    CLIENT = """
    int seqtest() {
      qinit();
      int e0 = dequeue();        // EMPTY
      enqueue(4); enqueue(5); enqueue(6);
      int a = dequeue();         // 4
      int b = dequeue();         // 5
      enqueue(7);
      int c = dequeue();         // 6
      int d = dequeue();         // 7
      int e1 = dequeue();        // EMPTY
      return (e0 == EMPTY) + (a == 4) * 10 + (b == 5) * 100
           + (c == 6) * 1000 + (d == 7) * 10000 + (e1 == EMPTY) * 100000;
    }
    """

    @pytest.mark.parametrize("name", ["ms2_queue", "msn_queue"])
    def test_fifo_semantics(self, name):
        assert run_client(name, self.CLIENT) == 111111


class TestSetsSequential:
    CLIENT = """
    int seqtest() {
      sinit();
      int r = 0;
      r = r + contains(5);             // 0
      r = r + add(5) * 10;             // add ok
      r = r + add(5) * 100;            // duplicate -> 0
      r = r + contains(5) * 1000;
      r = r + add(3) * 10000;          // insert before 5
      r = r + remove(5) * 100000;
      r = r + contains(5);             // 0 again
      r = r + contains(3) * 1000000;
      r = r + remove(9);               // absent -> 0
      return r;
    }
    """

    @pytest.mark.parametrize("name", ["lazy_list", "harris_set"])
    def test_set_semantics(self, name):
        assert run_client(name, self.CLIENT) == 1111010

    @pytest.mark.parametrize("name", ["lazy_list", "harris_set"])
    def test_sorted_insertion_many_keys(self, name):
        client = """
        int seqtest() {
          sinit();
          add(8); add(2); add(5); add(1); add(9);
          remove(5);
          int r = contains(1) + contains(2) * 10 + contains(5) * 100
                + contains(8) * 1000 + contains(9) * 10000;
          return r;
        }
        """
        assert run_client(name, client) == 11011


class TestAllocatorSequential:
    def test_distinct_blocks_and_reuse(self):
        client = """
        int seqtest() {
          int* a = malloc();
          int* b = malloc();
          int* c = malloc();
          int distinct = (a != b) && (b != c) && (a != c);
          *a = 1; *b = 2; *c = 3;
          int intact = (*a == 1) && (*b == 2) && (*c == 3);
          free(b);
          int* d = malloc();      // LIFO free list: reuses b's block
          int reused = (d == b);
          return distinct + intact * 10 + reused * 100;
        }
        """
        assert run_client("michael_allocator", client) == 111

    def test_exhausting_a_superblock_allocates_another(self):
        client = """
        int seqtest() {
          int i = 0;
          int* last = 0;
          while (i < 12) {            // > NBLOCKS=8: needs a second SB
            int* p = malloc();
            if (p == 0) { return 0 - 1; }
            *p = i;
            last = p;
            i = i + 1;
          }
          return *last;
        }
        """
        assert run_client("michael_allocator", client) == 11


class TestAllocatorPartialReuse:
    def test_partial_superblock_reused_after_exhaustion(self):
        client = """
        int held[8];
        int seqtest() {
          // Exhaust the first superblock completely.
          for (int i = 0; i < 8; i = i + 1) {
            held[i] = malloc();
          }
          // Force a second superblock while the first is full.
          int* extra = malloc();
          // Free one block of the (inactive, full) first superblock:
          // free() routes it to the Partial slot.
          free(held[0]);
          // Drain the second superblock... just free extra and take the
          // partial path by exhausting Active again.
          free(extra);
          int ok = 1;
          int* p = malloc();
          if (p == 0) { ok = 0; }
          return ok;
        }
        """
        assert run_client("michael_allocator", client) == 1

    def test_blocks_unique_across_superblocks(self):
        client = """
        int held[8];
        int seqtest() {
          int distinct = 1;
          for (int i = 0; i < 8; i = i + 1) {
            held[i] = malloc();
            for (int j = 0; j < i; j = j + 1) {
              if (held[i] == held[j]) { distinct = 0; }
            }
          }
          int* extra1 = malloc();   // second superblock
          int* extra2 = malloc();
          if (extra1 == extra2) { distinct = 0; }
          for (int i = 0; i < 8; i = i + 1) {
            if (extra1 == held[i] || extra2 == held[i]) { distinct = 0; }
          }
          return distinct;
        }
        """
        assert run_client("michael_allocator", client) == 1
