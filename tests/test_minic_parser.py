"""Unit tests for the MiniC parser."""

import pytest

from repro.minic import ParseError, parse
from repro.minic import ast


def parse_expr(text):
    program = parse("int main() { return %s; }" % text)
    func = program.decls[0]
    return func.body.stmts[0].value


def parse_stmts(body):
    program = parse("void f() { %s }" % body)
    return program.decls[0].body.stmts


class TestDeclarations:
    def test_globals(self):
        program = parse("int X; int arr[8]; int Y = 3;")
        names = [(d.name, d.array_len is not None, d.init is not None)
                 for d in program.decls]
        assert names == [("X", False, False), ("arr", True, False),
                         ("Y", False, True)]

    def test_const(self):
        program = parse("const N = 4;")
        assert isinstance(program.decls[0], ast.ConstDecl)

    def test_struct(self):
        program = parse("struct Node { int v; struct Node* next; };")
        decl = program.decls[0]
        assert isinstance(decl, ast.StructDecl)
        assert [f[1] for f in decl.fields] == ["v", "next"]
        assert decl.fields[1][0].stars == 1

    def test_function_params(self):
        program = parse("int f(int a, struct T* b) { return 0; } "
                        "struct T { int x; };")
        func = program.decls[0]
        assert [p[1] for p in func.params] == ["a", "b"]

    def test_void_param_list(self):
        program = parse("int f(void) { return 0; }")
        assert program.decls[0].params == []

    def test_pointer_return_type(self):
        program = parse("int* f() { return 0; }")
        assert program.decls[0].ret_type.stars == 1


class TestStatements:
    def test_if_else(self):
        stmts = parse_stmts("if (1) { } else { }")
        assert isinstance(stmts[0], ast.If)
        assert stmts[0].els is not None

    def test_dangling_else_binds_inner(self):
        stmts = parse_stmts("if (1) if (2) { } else { }")
        outer = stmts[0]
        assert outer.els is None
        assert outer.then.els is not None

    def test_while(self):
        stmts = parse_stmts("while (x < 3) { x = x + 1; }")
        assert isinstance(stmts[0], ast.While)

    def test_for_full(self):
        stmts = parse_stmts("for (int i = 0; i < 3; i = i + 1) { }")
        loop = stmts[0]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.init, ast.VarDecl)
        assert loop.cond is not None
        assert loop.step is not None

    def test_for_empty_sections(self):
        loop = parse_stmts("for (;;) { break; }")[0]
        assert loop.init is None and loop.cond is None and loop.step is None

    def test_break_continue_return_assert(self):
        stmts = parse_stmts("break; continue; return 1; assert(x);")
        assert [type(s) for s in stmts] == [
            ast.Break, ast.Continue, ast.Return, ast.AssertStmt]


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_compare_over_logic(self):
        expr = parse_expr("a < b && c > d")
        assert expr.op == "&&"
        assert expr.left.op == "<"

    def test_left_associativity(self):
        expr = parse_expr("10 - 3 - 2")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_parentheses(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_assignment_right_associative(self):
        expr = parse_expr("a = b = 1")
        assert isinstance(expr, ast.Assign)
        assert isinstance(expr.value, ast.Assign)

    def test_compound_assignment_desugared(self):
        for op in ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"):
            expr = parse_expr("a %s= 2" % op)
            assert isinstance(expr, ast.Assign)
            assert expr.value.op == op
            assert expr.value.left.name == "a"
            assert expr.value.right.value == 2

    def test_ternary(self):
        expr = parse_expr("a ? b : c")
        assert isinstance(expr, ast.Ternary)

    def test_postfix_chain(self):
        expr = parse_expr("p->next->key")
        assert isinstance(expr, ast.Field)
        assert expr.arrow
        assert isinstance(expr.base, ast.Field)

    def test_index_and_field(self):
        expr = parse_expr("arr[i + 1]")
        assert isinstance(expr, ast.Index)

    def test_unary_chain(self):
        expr = parse_expr("!*p")
        assert isinstance(expr, ast.Unary)
        assert isinstance(expr.operand, ast.Deref)

    def test_address_of(self):
        expr = parse_expr("&G")
        assert isinstance(expr, ast.AddrOf)

    def test_sizeof_type(self):
        expr = parse_expr("sizeof(struct T)")
        assert isinstance(expr, ast.SizeOf)

    def test_call_args(self):
        expr = parse_expr("f(1, g(2), x)")
        assert isinstance(expr, ast.Call)
        assert len(expr.args) == 3


class TestErrors:
    def test_increment_rejected_with_hint(self):
        with pytest.raises(ParseError, match="x = x \\+ 1"):
            parse("void f() { x++; }")

    def test_prefix_decrement_rejected(self):
        with pytest.raises(ParseError):
            parse("void f() { --x; }")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("void f() { return 1 }")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("void f() { g(1; }")

    def test_error_carries_line(self):
        try:
            parse("int x;\nvoid f() {\n  return 1\n}")
        except ParseError as exc:
            assert exc.line == 4
        else:
            pytest.fail("expected ParseError")
