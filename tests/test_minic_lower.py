"""Unit tests for MiniC lowering: compiled programs run correctly, and
semantic errors are rejected with useful messages."""

import pytest

from repro.memory import make_model
from repro.minic import CompileError, compile_source
from repro.vm import make_vm

from tests.reference.round_robin import RoundRobinScheduler


def result_of(source, model="sc"):
    module = compile_source(source)
    vm = make_vm(module, make_model(model))
    RoundRobinScheduler().run(vm)
    return vm.threads[0].result


class TestGlobals:
    def test_scalar_init(self):
        assert result_of("int G = 41; int main() { return G + 1; }") == 42

    def test_const_expressions(self):
        src = """
        const A = 3;
        const B = A * 4 + 1;
        int main() { return B; }
        """
        assert result_of(src) == 13

    def test_negative_const(self):
        assert result_of("const E = 0 - 1; int main() { return E; }") == -1

    def test_array_indexing(self):
        src = """
        int arr[5];
        int main() {
          for (int i = 0; i < 5; i = i + 1) { arr[i] = i * i; }
          return arr[3] + arr[4];
        }
        """
        assert result_of(src) == 25

    def test_array_decays_to_pointer(self):
        src = """
        int arr[3];
        int main() {
          int* p = arr;
          p[1] = 7;
          return arr[1];
        }
        """
        assert result_of(src) == 7

    def test_address_of_global(self):
        src = """
        int G;
        int main() {
          int* p = &G;
          *p = 11;
          return G;
        }
        """
        assert result_of(src) == 11

    def test_address_of_array_element(self):
        src = """
        int arr[4];
        int main() {
          int* p = &arr[2];
          *p = 9;
          return arr[2];
        }
        """
        assert result_of(src) == 9


class TestStructs:
    SRC = """
    struct Pair { int a; int b; };
    struct Pair G;

    int main() {
      G.a = 3;
      G.b = 4;
      struct Pair* p = &G;
      p->a = p->a + 10;
      return p->a * 100 + G.b;
    }
    """

    def test_fields_via_dot_and_arrow(self):
        assert result_of(self.SRC) == 1304

    def test_sizeof(self):
        src = """
        struct Pair { int a; int b; };
        int main() { return sizeof(struct Pair) + sizeof(int); }
        """
        assert result_of(src) == 3

    def test_heap_structs(self):
        src = """
        struct Node { int v; struct Node* next; };
        int main() {
          struct Node* a = pagealloc(sizeof(struct Node));
          struct Node* b = pagealloc(sizeof(struct Node));
          a->v = 1;
          a->next = b;
          b->v = 2;
          b->next = 0;
          return a->next->v;
        }
        """
        assert result_of(src) == 2

    def test_pointer_arithmetic_scaled(self):
        src = """
        struct Pair { int a; int b; };
        int main() {
          struct Pair* base = pagealloc(sizeof(struct Pair) * 3);
          struct Pair* second = base + 1;
          second->a = 5;
          int* raw = base;
          return raw[2];
        }
        """
        assert result_of(src) == 5

    def test_pointer_difference(self):
        src = """
        struct Pair { int a; int b; };
        int main() {
          struct Pair* base = pagealloc(sizeof(struct Pair) * 4);
          struct Pair* p = base + 3;
          return p - base;
        }
        """
        assert result_of(src) == 3


class TestScoping:
    def test_block_shadowing(self):
        src = """
        int main() {
          int x = 1;
          { int x = 2; }
          return x;
        }
        """
        assert result_of(src) == 1

    def test_for_scope(self):
        src = """
        int main() {
          int i = 100;
          for (int i = 0; i < 3; i = i + 1) { }
          return i;
        }
        """
        assert result_of(src) == 100

    def test_param_use(self):
        src = "int add(int a, int b) { return a + b; } " \
              "int main() { return add(2, 3); }"
        assert result_of(src) == 5


class TestErrors:
    def err(self, source, pattern):
        with pytest.raises(CompileError, match=pattern):
            compile_source(source)

    def test_address_of_local(self):
        self.err("int main() { int x; int* p = &x; return 0; }",
                 "address of local")

    def test_unknown_variable(self):
        self.err("int main() { return nope; }", "unknown identifier")

    def test_unknown_function(self):
        self.err("int main() { return nope(); }", "unknown function")

    def test_call_arity(self):
        self.err("int f(int a) { return a; } int main() { return f(); }",
                 "expects 1")

    def test_duplicate_global(self):
        self.err("int X; int X;", "duplicate global")

    def test_duplicate_function(self):
        self.err("void f() { } void f() { }", "duplicate function")

    def test_duplicate_local(self):
        self.err("int main() { int x; int x; return 0; }",
                 "duplicate variable")

    def test_assign_to_const(self):
        self.err("const N = 3; int main() { N = 4; return 0; }",
                 "constant")

    def test_assign_to_array(self):
        self.err("int arr[3]; int main() { arr = 0; return 0; }",
                 "array")

    def test_struct_as_value(self):
        self.err("struct P { int a; }; struct P G; "
                 "int main() { return G; }", "struct")

    def test_local_struct_rejected(self):
        self.err("struct P { int a; }; int main() { struct P x; return 0; }",
                 "locals must be int or pointer")

    def test_nested_struct_field_rejected(self):
        self.err("struct A { int x; }; struct B { struct A inner; };",
                 "pointers")

    def test_unknown_struct(self):
        self.err("struct Nope* p;", "unknown struct")

    def test_unknown_field(self):
        self.err("struct P { int a; }; struct P G; "
                 "int main() { return G.b; }", "no field")

    def test_arrow_on_int(self):
        self.err("int main() { int x; return x->f; }", "non-struct")

    def test_void_call_as_value(self):
        self.err("void f() { } int main() { return f(); }",
                 "used as a value")

    def test_break_outside_loop(self):
        self.err("int main() { break; return 0; }", "outside")

    def test_void_function_returning_value(self):
        self.err("void f() { return 3; }", "void function")

    def test_non_constant_global_init(self):
        self.err("int A; int B = A; int main() { return 0; }",
                 "not a constant")

    def test_negative_array_length(self):
        self.err("int arr[0];", "positive")

    def test_error_carries_line_number(self):
        try:
            compile_source("int x;\nint main() {\n  return nope;\n}")
        except CompileError as exc:
            assert "line 3" in str(exc)
        else:
            pytest.fail("expected CompileError")


class TestLineNumbers:
    def test_instructions_tagged_with_source_lines(self):
        src = "int G;\nint main() {\n  G = 1;\n  return G;\n}"
        module = compile_source(src)
        store = next(i for i in module.function("main").body if i.is_store())
        assert store.src_line == 3
