"""Whole-program MiniC integration tests.

Larger programs combining multiple language features, executed on the VM
and checked against independently computed expected results — the
front-end equivalent of end-to-end compiler tests.
"""

import pytest

from repro.memory import make_model
from repro.minic import compile_source
from repro.vm import make_vm

from tests.reference.round_robin import RoundRobinScheduler


def run(source, entry="main", args=()):
    module = compile_source(source)
    vm = make_vm(module, make_model("sc"), entry=entry, entry_args=args)
    RoundRobinScheduler().run(vm)
    return vm.threads[0].result


class TestAlgorithmsInMiniC:
    def test_insertion_sort(self):
        src = """
        int a[8];
        int main() {
          a[0] = 5; a[1] = 2; a[2] = 7; a[3] = 1;
          a[4] = 9; a[5] = 3; a[6] = 8; a[7] = 4;
          for (int i = 1; i < 8; i = i + 1) {
            int key = a[i];
            int j = i - 1;
            while (j >= 0 && a[j] > key) {
              a[j + 1] = a[j];
              j = j - 1;
            }
            a[j + 1] = key;
          }
          int sorted = 1;
          for (int i = 1; i < 8; i = i + 1) {
            if (a[i - 1] > a[i]) { sorted = 0; }
          }
          return sorted * 1000 + a[0] * 100 + a[7];
        }
        """
        assert run(src) == 1000 + 100 * 1 + 9

    def test_gcd_recursive(self):
        src = """
        int gcd(int a, int b) {
          if (b == 0) { return a; }
          return gcd(b, a % b);
        }
        int main() { return gcd(252, 105) * 100 + gcd(17, 5); }
        """
        assert run(src) == 21 * 100 + 1

    def test_collatz_length(self):
        src = """
        int collatz(int n) {
          int steps = 0;
          while (n != 1) {
            n = (n % 2 == 0) ? (n / 2) : (3 * n + 1);
            steps = steps + 1;
          }
          return steps;
        }
        int main() { return collatz(27); }
        """
        assert run(src) == 111

    def test_sieve_of_eratosthenes(self):
        src = """
        int composite[32];
        int main() {
          int count = 0;
          for (int i = 2; i < 32; i = i + 1) {
            if (!composite[i]) {
              count = count + 1;
              for (int j = i * i; j < 32; j = j + i) {
                composite[j] = 1;
              }
            }
          }
          return count;   // primes below 32
        }
        """
        assert run(src) == 11  # 2 3 5 7 11 13 17 19 23 29 31

    def test_linked_list_sum_and_reverse(self):
        src = """
        struct Node { int value; struct Node* next; };

        struct Node* build(int n) {
          struct Node* head = 0;
          for (int i = n; i >= 1; i = i - 1) {
            struct Node* node = pagealloc(sizeof(struct Node));
            node->value = i;
            node->next = head;
            head = node;
          }
          return head;   // 1, 2, ..., n
        }

        struct Node* reverse(struct Node* head) {
          struct Node* prev = 0;
          while (head != 0) {
            struct Node* next = head->next;
            head->next = prev;
            prev = head;
            head = next;
          }
          return prev;
        }

        int main() {
          struct Node* list = build(6);
          list = reverse(list);
          int first = list->value;          // 6 after reversal
          int sum = 0;
          while (list != 0) {
            sum = sum + list->value;
            list = list->next;
          }
          return first * 100 + sum;
        }
        """
        assert run(src) == 600 + 21

    def test_binary_search(self):
        src = """
        int a[16];
        int search(int key) {
          int lo = 0;
          int hi = 15;
          while (lo <= hi) {
            int mid = (lo + hi) / 2;
            if (a[mid] == key) { return mid; }
            if (a[mid] < key) { lo = mid + 1; } else { hi = mid - 1; }
          }
          return 0 - 1;
        }
        int main() {
          for (int i = 0; i < 16; i = i + 1) { a[i] = i * 3; }
          return search(27) * 100 + (search(28) == 0 - 1);
        }
        """
        assert run(src) == 900 + 1

    def test_fixed_point_sqrt(self):
        src = """
        int isqrt(int n) {
          int x = n;
          int y = (x + 1) / 2;
          while (y < x) {
            x = y;
            y = (x + n / x) / 2;
          }
          return x;
        }
        int main() { return isqrt(1024) * 1000 + isqrt(99); }
        """
        assert run(src) == 32 * 1000 + 9


class TestConcurrentPrograms:
    def test_parallel_sum_with_locks(self):
        src = """
        int L; int TOTAL;
        void adder(int base) {
          for (int i = 0; i < 10; i = i + 1) {
            lock(&L);
            TOTAL = TOTAL + base + i;
            unlock(&L);
          }
        }
        int main() {
          int t1 = fork(adder, 0);
          int t2 = fork(adder, 100);
          join(t1);
          join(t2);
          return TOTAL;
        }
        """
        module = compile_source(src)
        from repro.sched import FlushDelayScheduler
        expected = sum(range(10)) + sum(100 + i for i in range(10))
        for model in ("sc", "tso", "pso"):
            for seed in range(4):
                vm = make_vm(module, make_model(model))
                FlushDelayScheduler(seed=seed, flush_prob=0.3).run(vm)
                assert vm.threads[0].result == expected

    def test_barrier_via_join_chain(self):
        src = """
        int stage[4];
        void phase1() { stage[1] = stage[0] + 1; }
        void phase2() { stage[2] = stage[1] + 1; }
        int main() {
          stage[0] = 10;
          int t1 = fork(phase1);
          join(t1);
          int t2 = fork(phase2);
          join(t2);
          return stage[2];
        }
        """
        module = compile_source(src)
        from repro.sched import FlushDelayScheduler
        for model in ("tso", "pso"):
            for seed in range(6):
                vm = make_vm(module, make_model(model))
                FlushDelayScheduler(seed=seed, flush_prob=0.2).run(vm)
                # fork/join ordering makes this fully deterministic even
                # under relaxed models.
                assert vm.threads[0].result == 12

    def test_producer_consumer_ring(self):
        src = """
        int buf[4];
        int head; int tail;
        int L;
        const N = 8;

        void producer() {
          int produced = 0;
          while (produced < N) {
            lock(&L);
            if (tail - head < 4) {
              buf[tail % 4] = produced * 2;
              tail = tail + 1;
              produced = produced + 1;
            }
            unlock(&L);
          }
        }

        int main() {
          int t = fork(producer);
          int consumed = 0;
          int sum = 0;
          while (consumed < N) {
            lock(&L);
            if (head < tail) {
              sum = sum + buf[head % 4];
              head = head + 1;
              consumed = consumed + 1;
            }
            unlock(&L);
          }
          join(t);
          return sum;
        }
        """
        module = compile_source(src)
        from repro.sched import FlushDelayScheduler
        expected = sum(i * 2 for i in range(8))
        for model in ("tso", "pso"):
            for seed in range(4):
                vm = make_vm(module, make_model(model))
                FlushDelayScheduler(seed=seed, flush_prob=0.4).run(vm)
                assert vm.threads[0].result == expected, (model, seed)
