"""Round-trip tests for the MiniC pretty-printer."""

import pytest

from repro.algorithms import ALGORITHMS
from repro.memory import make_model
from repro.minic import compile_source, parse
from repro.minic.pretty import ast_equal, pretty
from repro.vm import make_vm

from tests.reference.round_robin import RoundRobinScheduler


def roundtrip(source):
    first = parse(source)
    text = pretty(first)
    second = parse(text)
    return first, text, second


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_benchmark_roundtrips(self, name):
        first, _text, second = roundtrip(ALGORITHMS[name].source)
        assert ast_equal(first, second)

    def test_pretty_output_compiles(self):
        source = ALGORITHMS["chase_lev"].source
        module = compile_source(pretty(parse(source)))
        assert "take" in module.functions

    def test_pretty_output_behaves_identically(self):
        source = """
        int G;
        int f(int n) {
          int s = 0;
          for (int i = 0; i < n; i = i + 1) {
            if (i % 2 == 0) { s += i; } else { s = s - 1; }
          }
          return s;
        }
        int main() { G = f(9); return G * 2; }
        """

        def run(text):
            vm = make_vm(compile_source(text), make_model("sc"))
            RoundRobinScheduler().run(vm)
            return vm.threads[0].result

        assert run(source) == run(pretty(parse(source)))

    def test_desugared_compound_assign_roundtrips(self):
        first, text, second = roundtrip(
            "int G; int main() { G += 2; G <<= 1; return G; }")
        assert ast_equal(first, second)
        assert "+=" not in text  # printed in desugared form

    def test_nested_assignment_parenthesised(self):
        first, text, second = roundtrip(
            "int A; int B; int main() { return (A = B) + 1; }")
        assert ast_equal(first, second)

    def test_idempotent(self):
        source = ALGORITHMS["msn_queue"].source
        once = pretty(parse(source))
        twice = pretty(parse(once))
        assert once == twice


class TestAstEqual:
    def test_detects_value_difference(self):
        a = parse("int main() { return 1; }")
        b = parse("int main() { return 2; }")
        assert not ast_equal(a, b)

    def test_detects_structure_difference(self):
        a = parse("int main() { return 1 + 2; }")
        b = parse("int main() { return 1; }")
        assert not ast_equal(a, b)

    def test_ignores_line_numbers(self):
        a = parse("int main() { return 1; }")
        b = parse("\n\nint main()\n{\n  return 1;\n}")
        assert ast_equal(a, b)

    def test_type_expressions_compared(self):
        a = parse("int* G;")
        b = parse("int G;")
        assert not ast_equal(a, b)
