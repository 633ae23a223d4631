"""Property-based tests of the MiniC front-end (hypothesis).

Random expression trees are rendered to MiniC, compiled, and executed;
the result must equal a reference evaluation with C semantics (truncating
division, short-circuit logic).  Single-threaded programs must also be
memory-model-invariant: SC, TSO and PSO all give the same answer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import make_model
from repro.minic import compile_source
from repro.sched import FlushDelayScheduler
from repro.vm import make_vm


# ----------------------------------------------------------------------
# Expression generator: (minic_text, reference_value)

def _c_div(a, b):
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a, b):
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        value = draw(st.integers(min_value=0, max_value=50))
        return (str(value), value)
    kind = draw(st.sampled_from(
        ["add", "sub", "mul", "div", "mod", "and", "or", "xor",
         "shl", "shr", "lt", "le", "eq", "ne", "land", "lor", "not",
         "neg", "ternary"]))
    left_text, left = draw(expressions(depth=depth - 1))
    if kind == "not":
        return ("(!%s)" % left_text, int(left == 0))
    if kind == "neg":
        return ("(-%s)" % left_text, -left)
    right_text, right = draw(expressions(depth=depth - 1))
    if kind == "ternary":
        third_text, third = draw(expressions(depth=depth - 1))
        value = left if third else right  # cond is 'third' for variety
        return ("(%s ? %s : %s)" % (third_text, left_text, right_text),
                left if third != 0 else right)
    if kind in ("div", "mod"):
        divisor = draw(st.integers(min_value=1, max_value=9))
        op = "/" if kind == "div" else "%"
        ref = _c_div(left, divisor) if kind == "div" \
            else _c_mod(left, divisor)
        return ("(%s %s %d)" % (left_text, op, divisor), ref)
    if kind in ("shl", "shr"):
        amount = draw(st.integers(min_value=0, max_value=6))
        op = "<<" if kind == "shl" else ">>"
        ref = left << amount if kind == "shl" else left >> amount
        return ("(%s %s %d)" % (left_text, op, amount), ref)
    table = {
        "add": ("+", lambda: left + right),
        "sub": ("-", lambda: left - right),
        "mul": ("*", lambda: left * right),
        "and": ("&", lambda: left & right),
        "or": ("|", lambda: left | right),
        "xor": ("^", lambda: left ^ right),
        "lt": ("<", lambda: int(left < right)),
        "le": ("<=", lambda: int(left <= right)),
        "eq": ("==", lambda: int(left == right)),
        "ne": ("!=", lambda: int(left != right)),
        "land": ("&&", lambda: int(bool(left) and bool(right))),
        "lor": ("||", lambda: int(bool(left) or bool(right))),
    }
    op, ref = table[kind]
    return ("(%s %s %s)" % (left_text, op, right_text), ref())


def run_program(source, model_name="sc", seed=0):
    module = compile_source(source)
    vm = make_vm(module, make_model(model_name))
    FlushDelayScheduler(seed=seed, flush_prob=0.4).run(vm)
    return vm.threads[0].result


@settings(max_examples=250, deadline=None)
@given(expr=expressions())
def test_expression_evaluation_matches_reference(expr):
    text, expected = expr
    assert run_program("int main() { return %s; }" % text) == expected


@settings(max_examples=100, deadline=None)
@given(expr=expressions(), model=st.sampled_from(["sc", "tso", "pso"]),
       seed=st.integers(min_value=0, max_value=10))
def test_single_threaded_programs_are_model_invariant(expr, model, seed):
    text, expected = expr
    source = """
    int G;
    int main() {
      G = %s;
      int r = G;
      return r;
    }
    """ % text
    assert run_program(source, model, seed) == expected


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(min_value=-50, max_value=50),
                       min_size=1, max_size=8),
       model=st.sampled_from(["tso", "pso"]))
def test_global_array_round_trip_under_any_model(values, model):
    stores = "\n".join("arr[%d] = %d;" % (i, v)
                       for i, v in enumerate(values))
    loads = " + ".join("arr[%d]" % i for i in range(len(values)))
    source = """
    int arr[8];
    int main() {
      %s
      return %s;
    }
    """ % (stores, loads)
    assert run_program(source, model, seed=1) == sum(values)
