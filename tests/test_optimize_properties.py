"""Property-based optimizer correctness (hypothesis).

Random expression programs compiled plain and optimized must produce the
same result — the optimizer is a semantics-preserving transformation.
Reuses the expression generator of test_minic_properties.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import make_model
from repro.minic import compile_source
from repro.vm import make_vm

from tests.reference.round_robin import RoundRobinScheduler


@st.composite
def expressions(draw, depth=3):
    """Random (minic_text, reference_value) expression pairs."""
    if depth == 0 or draw(st.booleans()):
        value = draw(st.integers(min_value=0, max_value=50))
        return (str(value), value)
    kind = draw(st.sampled_from(
        ["add", "sub", "mul", "and", "xor", "lt", "eq", "not", "neg"]))
    left_text, left = draw(expressions(depth=depth - 1))
    if kind == "not":
        return ("(!%s)" % left_text, int(left == 0))
    if kind == "neg":
        return ("(-%s)" % left_text, -left)
    right_text, right = draw(expressions(depth=depth - 1))
    table = {
        "add": ("+", left + right),
        "sub": ("-", left - right),
        "mul": ("*", left * right),
        "and": ("&", left & right),
        "xor": ("^", left ^ right),
        "lt": ("<", int(left < right)),
        "eq": ("==", int(left == right)),
    }
    op, ref = table[kind]
    return ("(%s %s %s)" % (left_text, op, right_text), ref)


def run_module(module, entry="main"):
    vm = make_vm(module, make_model("sc"), entry=entry)
    RoundRobinScheduler().run(vm)
    return vm.threads[0].result


@settings(max_examples=150, deadline=None)
@given(expr=expressions())
def test_optimizer_preserves_expression_results(expr):
    text, expected = expr
    source = "int main() { return %s; }" % text
    plain = compile_source(source)
    optimized = compile_source(source, optimize=True)
    assert run_module(plain) == expected
    assert run_module(optimized) == expected


@settings(max_examples=100, deadline=None)
@given(expr=expressions(), arg=st.integers(min_value=-5, max_value=5))
def test_optimizer_preserves_control_flow(expr, arg):
    text, _ = expr
    source = """
    int G;
    int f(int c) {
      int acc = 0;
      for (int i = 0; i < 3; i = i + 1) {
        if (c > i) { acc = acc + %s; } else { acc = acc - 1; }
      }
      G = acc;
      return G;
    }
    int main(int c) { return f(c); }
    """ % text
    plain = compile_source(source)
    optimized = compile_source(source, optimize=True)
    vm1 = make_vm(plain, make_model("sc"), entry_args=(arg,))
    RoundRobinScheduler().run(vm1)
    vm2 = make_vm(optimized, make_model("sc"), entry_args=(arg,))
    RoundRobinScheduler().run(vm2)
    assert vm1.threads[0].result == vm2.threads[0].result


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=30),
                       min_size=1, max_size=6))
def test_optimizer_preserves_shared_memory_contents(values):
    stores = "\n".join("arr[%d] = %d + %d;" % (i, v, i)
                       for i, v in enumerate(values))
    source = """
    int arr[8];
    int main() {
      %s
      return 0;
    }
    """ % stores
    plain = compile_source(source)
    optimized = compile_source(source, optimize=True)
    vm1 = make_vm(plain, make_model("sc"))
    RoundRobinScheduler().run(vm1)
    vm2 = make_vm(optimized, make_model("sc"))
    RoundRobinScheduler().run(vm2)
    base1 = vm1.memory.global_addr["arr"]
    base2 = vm2.memory.global_addr["arr"]
    for i in range(8):
        assert vm1.memory.read(base1 + i) == vm2.memory.read(base2 + i)
