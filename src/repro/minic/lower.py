"""MiniC → DIR lowering (with integrated type checking).

A light module-level pass collects structs, constants, globals and
function signatures; then each function body is lowered to DIR with types
tracked per expression.  MiniC is deliberately weakly typed across
int/pointer boundaries (matching the C-via-LLVM setting of the paper) but
rejects struct misuse, bad field accesses, arity errors, and address-of on
locals (locals are registers and have no address).

Built-in primitives recognised as calls:

``cas(addr, expected, new)``, ``fence()``, ``fence_ss()``, ``fence_sl()``,
``fork(fn, args...)``, ``join(tid)``, ``self()``, ``pagealloc(n)``,
``pagefree(p)``, ``lock(addr)``, ``unlock(addr)``.

``lock``/``unlock`` lower to the paper's treatment: a CAS spin-loop /
releasing store, each wrapped with full fences before and after, which
simulates the volatile lock variable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..ir.builder import IRBuilder
from ..ir.instructions import FenceKind
from ..ir.module import GlobalVar, Module
from ..ir.operands import Const, Reg, Sym
from ..ir.verifier import verify_module
from ..vm.compile import BINOP_FN, UNOP_FN
from ..vm.errors import InterpreterError
from . import ast
from .parser import parse
from .types import (
    INT,
    VOID,
    ArrayType,
    FuncSig,
    PointerType,
    StructType,
    Type,
)


class CompileError(Exception):
    """Semantic error in MiniC source."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


Operand = Union[Reg, Const, Sym]
#: An lvalue is either a register or a shared-memory address.
LValue = Tuple[str, Operand, Type]  # ("reg"|"mem", operand, value type)

_BINOP_MAP = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
    "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
    "==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}

_UNOP_MAP = {"-": "neg", "!": "not", "~": "bnot"}


class ModuleEnv:
    """Module-level symbol tables."""

    def __init__(self) -> None:
        self.structs: Dict[str, StructType] = {}
        self.consts: Dict[str, int] = {}
        self.globals: Dict[str, Type] = {}
        self.funcs: Dict[str, FuncSig] = {}

    def resolve(self, type_expr: ast.TypeExpr) -> Type:
        if type_expr.base == "int":
            base: Type = INT
        elif type_expr.base == "void":
            base = VOID
        else:
            struct = self.structs.get(type_expr.struct_name)
            if struct is None:
                raise CompileError("unknown struct %r" % type_expr.struct_name,
                                   type_expr.line)
            base = struct
        for _ in range(type_expr.stars):
            base = PointerType(base)
        return base


# ----------------------------------------------------------------------
# Constant expressions

def _const_eval(expr: ast.Expr, env: ModuleEnv) -> int:
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Ident):
        if expr.name in env.consts:
            return env.consts[expr.name]
        raise CompileError("%r is not a constant" % expr.name, expr.line)
    if isinstance(expr, ast.Unary):
        return UNOP_FN[_UNOP_MAP[expr.op]](_const_eval(expr.operand, env))
    if isinstance(expr, ast.Binary):
        left = _const_eval(expr.left, env)
        right = _const_eval(expr.right, env)
        if expr.op == "&&":
            return int(bool(left) and bool(right))
        if expr.op == "||":
            return int(bool(left) or bool(right))
        try:
            return BINOP_FN[_BINOP_MAP[expr.op]](left, right)
        except InterpreterError:
            raise CompileError("division by zero in constant", expr.line) \
                from None
    if isinstance(expr, ast.SizeOf):
        return env.resolve(expr.type_expr).size
    raise CompileError("expression is not constant", expr.line)


# ----------------------------------------------------------------------
# Module-level compilation

def compile_source(source: str, name: str = "module") -> Module:
    """Compile MiniC source text to a verified DIR module."""
    program = parse(source)
    module = Module(name)
    module.source = source
    env = ModuleEnv()

    # Pass 1a: struct shells (so pointer fields may reference any struct).
    for decl in program.decls:
        if isinstance(decl, ast.StructDecl):
            if decl.name in env.structs:
                raise CompileError("duplicate struct %r" % decl.name,
                                   decl.line)
            env.structs[decl.name] = StructType(decl.name)

    # Pass 1b: struct bodies, constants, globals, function signatures.
    func_decls: List[ast.FuncDecl] = []
    for decl in program.decls:
        if isinstance(decl, ast.StructDecl):
            struct = env.structs[decl.name]
            for ftype_expr, fname in decl.fields:
                ftype = env.resolve(ftype_expr)
                if isinstance(ftype, StructType):
                    raise CompileError(
                        "field %r: nested struct fields must be pointers"
                        % fname, decl.line)
                struct.add_field(fname, ftype)
            struct.complete = True
        elif isinstance(decl, ast.ConstDecl):
            if decl.name in env.consts:
                raise CompileError("duplicate const %r" % decl.name, decl.line)
            env.consts[decl.name] = _const_eval(decl.value, env)
        elif isinstance(decl, ast.GlobalDecl):
            _declare_global(decl, env, module)
        elif isinstance(decl, ast.FuncDecl):
            if decl.name in env.funcs:
                raise CompileError("duplicate function %r" % decl.name,
                                   decl.line)
            ret = env.resolve(decl.ret_type)
            params = [(pname, env.resolve(ptype))
                      for ptype, pname in decl.params]
            for pname, ptype in params:
                if isinstance(ptype, (StructType, ArrayType)):
                    raise CompileError(
                        "parameter %r: pass structs by pointer" % pname,
                        decl.line)
            env.funcs[decl.name] = FuncSig(decl.name, ret, params)
            func_decls.append(decl)

    # Pass 2: function bodies.
    for decl in func_decls:
        _FunctionLowerer(module, env, decl).lower()

    verify_module(module)
    return module


def _declare_global(decl: ast.GlobalDecl, env: ModuleEnv,
                    module: Module) -> None:
    if decl.name in env.globals or decl.name in env.consts:
        raise CompileError("duplicate global %r" % decl.name, decl.line)
    base = env.resolve(decl.type_expr)
    if isinstance(base, StructType) and not base.complete:
        raise CompileError("global of incomplete struct", decl.line)
    init: List[int] = []
    if decl.array_len is not None:
        count = _const_eval(decl.array_len, env)
        if count <= 0:
            raise CompileError("array length must be positive", decl.line)
        if isinstance(base, (StructType, ArrayType)) and \
                isinstance(base, ArrayType):
            raise CompileError("multi-dimensional arrays are not supported",
                               decl.line)
        var_type: Type = ArrayType(base, count)
        if decl.init is not None:
            raise CompileError("array initialisers are not supported",
                               decl.line)
    else:
        var_type = base
        if base is VOID:
            raise CompileError("global of type void", decl.line)
        if decl.init is not None:
            if isinstance(base, StructType):
                raise CompileError("struct initialisers are not supported",
                                   decl.line)
            init = [_const_eval(decl.init, env)]
    env.globals[decl.name] = var_type
    module.add_global(GlobalVar(decl.name, var_type.size, init))


# ----------------------------------------------------------------------
# Function lowering

class _LoopLabels:
    __slots__ = ("break_label", "continue_label")

    def __init__(self, break_label, continue_label) -> None:
        self.break_label = break_label
        self.continue_label = continue_label


class _FunctionLowerer:
    def __init__(self, module: Module, env: ModuleEnv,
                 decl: ast.FuncDecl) -> None:
        self.env = env
        self.decl = decl
        self.sig = env.funcs[decl.name]
        self.builder = IRBuilder(module, decl.name,
                                 [pname for pname, _t in self.sig.params])
        self.scopes: List[Dict[str, Tuple[str, Type]]] = [{}]
        self.loops: List[_LoopLabels] = []
        self._rename = 0

    # -- scope helpers -------------------------------------------------

    def _declare(self, name: str, type_: Type, line: int) -> Reg:
        scope = self.scopes[-1]
        if name in scope:
            raise CompileError("duplicate variable %r" % name, line)
        if any(name == p for p, _t in self.sig.params) \
                and len(self.scopes) == 1:
            raise CompileError("%r shadows a parameter" % name, line)
        reg_name = name
        if any(name in s for s in self.scopes[:-1]):
            self._rename += 1
            reg_name = "%s.%d" % (name, self._rename)
        scope[name] = (reg_name, type_)
        return Reg(reg_name)

    def _lookup(self, name: str) -> Optional[Tuple[str, Type]]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # -- entry ----------------------------------------------------------

    def lower(self) -> None:
        for pname, ptype in self.sig.params:
            self.scopes[0][pname] = (pname, ptype)
        self.builder.cur_line = self.decl.line
        self._stmt(self.decl.body)
        self.builder.finish()

    # -- statements ------------------------------------------------------

    def _stmt(self, stmt: ast.Stmt) -> None:
        b = self.builder
        b.cur_line = stmt.line
        if isinstance(stmt, ast.Block):
            self.scopes.append({})
            for inner in stmt.stmts:
                self._stmt(inner)
            self.scopes.pop()
        elif isinstance(stmt, ast.VarDecl):
            var_type = self.env.resolve(stmt.type_expr)
            if isinstance(var_type, (StructType, ArrayType)) \
                    or var_type is VOID:
                raise CompileError(
                    "locals must be int or pointer (structs/arrays live in "
                    "globals or pagealloc'd memory)", stmt.line)
            reg = self._declare(stmt.name, var_type, stmt.line)
            if stmt.init is not None:
                value, vtype = self._rvalue(stmt.init)
                self._check_assignable(var_type, vtype, stmt.line)
                b.mov(reg, value)
        elif isinstance(stmt, ast.If):
            cond, ctype = self._rvalue(stmt.cond)
            self._require_arith(ctype, stmt.cond.line)
            then_l = b.block_label("then")
            else_l = b.block_label("else")
            end_l = b.block_label("endif")
            b.cbr(cond, then_l, else_l)
            b.bind(then_l)
            self._stmt(stmt.then)
            b.br(end_l)
            b.bind(else_l)
            if stmt.els is not None:
                self._stmt(stmt.els)
            b.br(end_l)
            b.bind(end_l)
        elif isinstance(stmt, ast.While):
            cond_l = b.block_label("while.cond")
            body_l = b.block_label("while.body")
            end_l = b.block_label("while.end")
            b.br(cond_l)
            b.bind(cond_l)
            b.cur_line = stmt.line
            cond, ctype = self._rvalue(stmt.cond)
            self._require_arith(ctype, stmt.cond.line)
            b.cbr(cond, body_l, end_l)
            b.bind(body_l)
            self.loops.append(_LoopLabels(end_l, cond_l))
            self._stmt(stmt.body)
            self.loops.pop()
            b.br(cond_l)
            b.bind(end_l)
        elif isinstance(stmt, ast.For):
            self.scopes.append({})
            if stmt.init is not None:
                self._stmt(stmt.init)
            cond_l = b.block_label("for.cond")
            body_l = b.block_label("for.body")
            step_l = b.block_label("for.step")
            end_l = b.block_label("for.end")
            b.br(cond_l)
            b.bind(cond_l)
            if stmt.cond is not None:
                b.cur_line = stmt.line
                cond, ctype = self._rvalue(stmt.cond)
                self._require_arith(ctype, stmt.cond.line)
                b.cbr(cond, body_l, end_l)
            else:
                b.br(body_l)
            b.bind(body_l)
            self.loops.append(_LoopLabels(end_l, step_l))
            self._stmt(stmt.body)
            self.loops.pop()
            b.br(step_l)
            b.bind(step_l)
            if stmt.step is not None:
                b.cur_line = stmt.step.line
                self._rvalue(stmt.step)
            b.br(cond_l)
            b.bind(end_l)
            self.scopes.pop()
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                b.ret(Const(0))
            else:
                value, vtype = self._rvalue(stmt.value)
                if self.sig.ret is VOID:
                    raise CompileError(
                        "void function %r returns a value" % self.sig.name,
                        stmt.line)
                self._check_assignable(self.sig.ret, vtype, stmt.line)
                b.ret(value)
        elif isinstance(stmt, ast.Break):
            if not self.loops:
                raise CompileError("break outside a loop", stmt.line)
            b.br(self.loops[-1].break_label)
        elif isinstance(stmt, ast.Continue):
            if not self.loops:
                raise CompileError("continue outside a loop", stmt.line)
            b.br(self.loops[-1].continue_label)
        elif isinstance(stmt, ast.ExprStmt):
            self._rvalue(stmt.expr, allow_void=True)
        elif isinstance(stmt, ast.AssertStmt):
            cond, ctype = self._rvalue(stmt.cond)
            self._require_arith(ctype, stmt.line)
            b.assert_(cond, "assert at line %d" % stmt.line)
        else:
            raise CompileError("unsupported statement %r" % stmt, stmt.line)

    # -- type utilities ---------------------------------------------------

    def _require_arith(self, type_: Type, line: int) -> None:
        if not type_.is_arithmetic():
            raise CompileError("value of type %r not usable here" % type_,
                               line)

    def _check_assignable(self, dst: Type, src: Type, line: int) -> None:
        if dst.is_arithmetic() and src.is_arithmetic():
            return  # int <-> pointer freely, as in the paper's C
        raise CompileError("cannot assign %r to %r" % (src, dst), line)

    # -- lvalues ------------------------------------------------------------

    def _lvalue(self, expr: ast.Expr) -> LValue:
        b = self.builder
        if isinstance(expr, ast.Ident):
            local = self._lookup(expr.name)
            if local is not None:
                reg_name, type_ = local
                return ("reg", Reg(reg_name), type_)
            if expr.name in self.env.globals:
                gtype = self.env.globals[expr.name]
                if isinstance(gtype, ArrayType):
                    raise CompileError(
                        "cannot assign to array %r" % expr.name, expr.line)
                return ("mem", Sym(expr.name), gtype)
            if expr.name in self.env.consts:
                raise CompileError("cannot assign to constant %r" % expr.name,
                                   expr.line)
            raise CompileError("unknown variable %r" % expr.name, expr.line)
        if isinstance(expr, ast.Deref):
            addr, atype = self._rvalue(expr.operand)
            pointee = atype.pointee if isinstance(atype, PointerType) else INT
            if isinstance(pointee, (StructType, VOID.__class__)):
                if isinstance(pointee, StructType):
                    raise CompileError(
                        "cannot use a whole struct as a value", expr.line)
                pointee = INT
            return ("mem", addr, pointee)
        if isinstance(expr, ast.Index):
            return self._index_lvalue(expr)
        if isinstance(expr, ast.Field):
            return self._field_lvalue(expr)
        raise CompileError("expression is not assignable", expr.line)

    def _index_lvalue(self, expr: ast.Index) -> LValue:
        b = self.builder
        base, btype = self._rvalue(expr.base)
        if isinstance(btype, PointerType):
            elem = btype.pointee
        else:
            elem = INT
        if isinstance(elem, StructType):
            raise CompileError("indexing yields a struct; access a field",
                               expr.line)
        index, itype = self._rvalue(expr.index)
        self._require_arith(itype, expr.line)
        addr = self.builder.tmp()
        if elem.size != 1:
            scaled = self.builder.tmp()
            b.binop(scaled, "mul", index, Const(elem.size))
            b.binop(addr, "add", base, scaled)
        else:
            b.binop(addr, "add", base, index)
        return ("mem", addr, elem)

    def _field_lvalue(self, expr: ast.Field) -> LValue:
        b = self.builder
        if expr.arrow:
            base, btype = self._rvalue(expr.base)
            struct = btype.pointee if isinstance(btype, PointerType) else None
            if not isinstance(struct, StructType):
                raise CompileError(
                    "-> on non-struct-pointer (type %r)" % btype, expr.line)
        else:
            kind, base, btype = self._address_of(expr.base)
            struct = btype
            if not isinstance(struct, StructType):
                raise CompileError(". on non-struct (type %r)" % btype,
                                   expr.line)
        field = struct.field(expr.name)
        if field is None:
            raise CompileError("struct %s has no field %r"
                               % (struct.name, expr.name), expr.line)
        if field.offset == 0:
            return ("mem", base, field.type)
        addr = b.tmp()
        b.binop(addr, "add", base, Const(field.offset))
        return ("mem", addr, field.type)

    def _address_of(self, expr: ast.Expr) -> Tuple[str, Operand, Type]:
        """Address of an lvalue; returns ("mem", addr, pointee type)."""
        if isinstance(expr, ast.Ident):
            local = self._lookup(expr.name)
            if local is not None:
                raise CompileError(
                    "cannot take the address of local %r (locals are "
                    "registers in MiniC)" % expr.name, expr.line)
            if expr.name in self.env.globals:
                gtype = self.env.globals[expr.name]
                return ("mem", Sym(expr.name), gtype)
            raise CompileError("unknown variable %r" % expr.name, expr.line)
        kind, operand, type_ = self._lvalue(expr)
        if kind != "mem":
            raise CompileError("cannot take this address", expr.line)
        return (kind, operand, type_)

    # -- rvalues -----------------------------------------------------------

    def _rvalue(self, expr: ast.Expr,
                allow_void: bool = False) -> Tuple[Operand, Type]:
        b = self.builder
        if isinstance(expr, ast.Num):
            return (Const(expr.value), INT)
        if isinstance(expr, ast.Ident):
            if expr.name in self.env.consts:
                return (Const(self.env.consts[expr.name]), INT)
            local = self._lookup(expr.name)
            if local is not None:
                reg_name, type_ = local
                return (Reg(reg_name), type_)
            if expr.name in self.env.globals:
                gtype = self.env.globals[expr.name]
                if isinstance(gtype, ArrayType):
                    # Array decays to a pointer to its first element.
                    dst = b.tmp()
                    b.mov(dst, Sym(expr.name))
                    return (dst, PointerType(gtype.elem))
                if isinstance(gtype, StructType):
                    raise CompileError(
                        "cannot use struct %r as a value (use &%s or a "
                        "field)" % (expr.name, expr.name), expr.line)
                dst = b.tmp()
                b.load(dst, Sym(expr.name))
                return (dst, gtype)
            raise CompileError("unknown identifier %r" % expr.name, expr.line)
        if isinstance(expr, ast.SizeOf):
            return (Const(self.env.resolve(expr.type_expr).size), INT)
        if isinstance(expr, ast.Unary):
            value, vtype = self._rvalue(expr.operand)
            self._require_arith(vtype, expr.line)
            dst = b.tmp()
            b.unop(dst, _UNOP_MAP[expr.op], value)
            return (dst, INT)
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        if isinstance(expr, ast.Ternary):
            return self._ternary(expr)
        if isinstance(expr, ast.Assign):
            return self._assign(expr)
        if isinstance(expr, ast.Call):
            return self._call(expr, allow_void)
        if isinstance(expr, ast.Deref):
            kind, operand, type_ = self._lvalue(expr)
            dst = b.tmp()
            b.load(dst, operand)
            return (dst, type_)
        if isinstance(expr, ast.Index):
            kind, operand, type_ = self._index_lvalue(expr)
            dst = b.tmp()
            b.load(dst, operand)
            return (dst, type_)
        if isinstance(expr, ast.Field):
            kind, operand, type_ = self._field_lvalue(expr)
            if isinstance(type_, StructType):
                raise CompileError("cannot load a whole struct", expr.line)
            dst = b.tmp()
            b.load(dst, operand)
            return (dst, type_)
        if isinstance(expr, ast.AddrOf):
            _kind, operand, type_ = self._address_of(expr.operand)
            dst = b.tmp()
            b.mov(dst, operand)
            if isinstance(type_, ArrayType):
                return (dst, PointerType(type_.elem))
            return (dst, PointerType(type_))
        raise CompileError("unsupported expression %r" % expr, expr.line)

    def _binary(self, expr: ast.Binary) -> Tuple[Operand, Type]:
        b = self.builder
        if expr.op in ("&&", "||"):
            return self._short_circuit(expr)
        left, ltype = self._rvalue(expr.left)
        right, rtype = self._rvalue(expr.right)
        self._require_arith(ltype, expr.line)
        self._require_arith(rtype, expr.line)

        # Pointer arithmetic scaling (C semantics, in cells).
        if expr.op in ("+", "-"):
            lp = isinstance(ltype, PointerType)
            rp = isinstance(rtype, PointerType)
            if lp and not rp and ltype.pointee.size != 1:
                scaled = b.tmp()
                b.binop(scaled, "mul", right, Const(ltype.pointee.size))
                right = scaled
            elif rp and not lp and expr.op == "+" \
                    and rtype.pointee.size != 1:
                scaled = b.tmp()
                b.binop(scaled, "mul", left, Const(rtype.pointee.size))
                left = scaled
            if lp and rp and expr.op == "-":
                diff = b.tmp()
                b.binop(diff, "sub", left, right)
                if ltype.pointee.size != 1:
                    dst = b.tmp()
                    b.binop(dst, "div", diff, Const(ltype.pointee.size))
                    return (dst, INT)
                return (diff, INT)

        dst = b.tmp()
        b.binop(dst, _BINOP_MAP[expr.op], left, right)
        result_type: Type = INT
        if expr.op in ("+", "-"):
            if isinstance(ltype, PointerType):
                result_type = ltype
            elif isinstance(rtype, PointerType) and expr.op == "+":
                result_type = rtype
        return (dst, result_type)

    def _short_circuit(self, expr: ast.Binary) -> Tuple[Operand, Type]:
        b = self.builder
        result = b.tmp()
        rhs_l = b.block_label("sc.rhs")
        end_l = b.block_label("sc.end")
        short_l = b.block_label("sc.short")
        left, ltype = self._rvalue(expr.left)
        self._require_arith(ltype, expr.line)
        if expr.op == "&&":
            b.cbr(left, rhs_l, short_l)
        else:
            b.cbr(left, short_l, rhs_l)
        b.bind(short_l)
        b.const(result, 0 if expr.op == "&&" else 1)
        b.br(end_l)
        b.bind(rhs_l)
        right, rtype = self._rvalue(expr.right)
        self._require_arith(rtype, expr.line)
        b.binop(result, "ne", right, Const(0))
        b.br(end_l)
        b.bind(end_l)
        return (result, INT)

    def _ternary(self, expr: ast.Ternary) -> Tuple[Operand, Type]:
        b = self.builder
        result = b.tmp()
        then_l = b.block_label("t.then")
        else_l = b.block_label("t.else")
        end_l = b.block_label("t.end")
        cond, ctype = self._rvalue(expr.cond)
        self._require_arith(ctype, expr.line)
        b.cbr(cond, then_l, else_l)
        b.bind(then_l)
        tval, ttype = self._rvalue(expr.then)
        self._require_arith(ttype, expr.line)
        b.mov(result, tval)
        b.br(end_l)
        b.bind(else_l)
        eval_, etype = self._rvalue(expr.els)
        self._require_arith(etype, expr.line)
        b.mov(result, eval_)
        b.br(end_l)
        b.bind(end_l)
        return (result, ttype)

    def _assign(self, expr: ast.Assign) -> Tuple[Operand, Type]:
        b = self.builder
        value, vtype = self._rvalue(expr.value)
        kind, target, ttype = self._lvalue(expr.target)
        self._check_assignable(ttype, vtype, expr.line)
        if kind == "reg":
            b.mov(target, value)
        else:
            b.store(value, target)
        return (value, ttype)

    # -- calls and builtins ---------------------------------------------

    def _call(self, expr: ast.Call,
              allow_void: bool) -> Tuple[Operand, Type]:
        b = self.builder
        name = expr.name
        handler = _BUILTINS.get(name)
        if handler is not None:
            return handler(self, expr, allow_void)
        sig = self.env.funcs.get(name)
        if sig is None:
            raise CompileError("unknown function %r" % name, expr.line)
        if len(expr.args) != len(sig.params):
            raise CompileError(
                "%s expects %d arguments, got %d"
                % (name, len(sig.params), len(expr.args)), expr.line)
        args = []
        for arg, (_pname, ptype) in zip(expr.args, sig.params):
            value, vtype = self._rvalue(arg)
            self._check_assignable(ptype, vtype, arg.line)
            args.append(value)
        if sig.ret is VOID:
            if not allow_void:
                raise CompileError(
                    "void call %s() used as a value" % name, expr.line)
            b.call(None, name, args)
            return (Const(0), VOID)
        dst = b.tmp()
        b.call(dst, name, args)
        return (dst, sig.ret)

    # builtin implementations ------------------------------------------

    def _builtin_cas(self, expr, allow_void):
        b = self.builder
        if len(expr.args) != 3:
            raise CompileError("cas(addr, expected, new)", expr.line)
        addr, atype = self._rvalue(expr.args[0])
        self._require_arith(atype, expr.line)
        expected, _t1 = self._rvalue(expr.args[1])
        new, _t2 = self._rvalue(expr.args[2])
        dst = b.tmp()
        b.cas(dst, addr, expected, new)
        return (dst, INT)

    def _builtin_fence(self, kind: FenceKind):
        def handler(self_, expr, allow_void):
            if expr.args:
                raise CompileError("fence takes no arguments", expr.line)
            self_.builder.fence(kind)
            return (Const(0), VOID)
        return handler

    def _builtin_fork(self, expr, allow_void):
        b = self.builder
        if not expr.args or not isinstance(expr.args[0], ast.Ident):
            raise CompileError("fork(function, args...)", expr.line)
        fn_name = expr.args[0].name
        sig = self.env.funcs.get(fn_name)
        if sig is None:
            raise CompileError("fork of unknown function %r" % fn_name,
                               expr.line)
        arg_exprs = expr.args[1:]
        if len(arg_exprs) != len(sig.params):
            raise CompileError(
                "fork(%s): expects %d thread arguments, got %d"
                % (fn_name, len(sig.params), len(arg_exprs)), expr.line)
        args = [self._rvalue(arg)[0] for arg in arg_exprs]
        dst = b.tmp()
        b.fork(dst, fn_name, args)
        return (dst, INT)

    def _builtin_join(self, expr, allow_void):
        if len(expr.args) != 1:
            raise CompileError("join(tid)", expr.line)
        tid, ttype = self._rvalue(expr.args[0])
        self._require_arith(ttype, expr.line)
        self.builder.join(tid)
        return (Const(0), VOID)

    def _builtin_self(self, expr, allow_void):
        if expr.args:
            raise CompileError("self() takes no arguments", expr.line)
        dst = self.builder.tmp()
        self.builder.self_id(dst)
        return (dst, INT)

    def _builtin_pagealloc(self, expr, allow_void):
        if len(expr.args) != 1:
            raise CompileError("pagealloc(cells)", expr.line)
        size, stype = self._rvalue(expr.args[0])
        self._require_arith(stype, expr.line)
        dst = self.builder.tmp()
        self.builder.pagealloc(dst, size)
        return (dst, PointerType(INT))

    def _builtin_pagefree(self, expr, allow_void):
        if len(expr.args) != 1:
            raise CompileError("pagefree(ptr)", expr.line)
        addr, atype = self._rvalue(expr.args[0])
        self._require_arith(atype, expr.line)
        self.builder.pagefree(addr)
        return (Const(0), VOID)

    def _builtin_lock(self, expr, allow_void):
        """lock(addr): fenced CAS spin-loop (the paper's lock treatment)."""
        b = self.builder
        if len(expr.args) != 1:
            raise CompileError("lock(addr)", expr.line)
        addr, atype = self._rvalue(expr.args[0])
        self._require_arith(atype, expr.line)
        b.fence(FenceKind.FULL)
        retry = b.block_label("lock.retry")
        done = b.block_label("lock.done")
        b.br(retry)
        b.bind(retry)
        got = b.tmp()
        b.cas(got, addr, Const(0), Const(1))
        b.cbr(got, done, retry)
        b.bind(done)
        b.fence(FenceKind.FULL)
        return (Const(0), VOID)

    def _builtin_unlock(self, expr, allow_void):
        """unlock(addr): fenced releasing store."""
        b = self.builder
        if len(expr.args) != 1:
            raise CompileError("unlock(addr)", expr.line)
        addr, atype = self._rvalue(expr.args[0])
        self._require_arith(atype, expr.line)
        b.fence(FenceKind.FULL)
        b.store(Const(0), addr)
        b.fence(FenceKind.FULL)
        return (Const(0), VOID)


_BUILTINS = {
    "cas": _FunctionLowerer._builtin_cas,
    "fence": _FunctionLowerer._builtin_fence(None, FenceKind.FULL),
    "fence_ss": _FunctionLowerer._builtin_fence(None, FenceKind.ST_ST),
    "fence_sl": _FunctionLowerer._builtin_fence(None, FenceKind.ST_LD),
    "fork": _FunctionLowerer._builtin_fork,
    "join": _FunctionLowerer._builtin_join,
    "self": _FunctionLowerer._builtin_self,
    "pagealloc": _FunctionLowerer._builtin_pagealloc,
    "pagefree": _FunctionLowerer._builtin_pagefree,
    "lock": _FunctionLowerer._builtin_lock,
    "unlock": _FunctionLowerer._builtin_unlock,
}
