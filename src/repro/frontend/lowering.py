"""Lowering MiniC ASTs to IR (with integrated semantic checks).

The lowering follows clang ``-O0`` conventions: every mutable local
(including parameters) lives in an entry-block alloca; expressions are
lowered to registers with C's usual arithmetic conversions; ``&&``,
``||``, and ``?:`` become control flow.  MiniC's integer types are
``char`` (i8) and ``int``/``long`` (both i64); floats are ``float``
(f32) and ``double`` (f64).

The C type system is treated exactly as unreliably as the paper
treats it: casts between pointers and integers are unchecked, and the
IR types exist for layout, not for safety.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.cfg import reachable_blocks
from ..errors import FrontendError
from ..interp.externals import external_signatures
from ..ir import (ArrayType, BasicBlock, FloatType, Function, FunctionType,
                  GlobalRef, GlobalVariable, IRBuilder, IntType, Module,
                  PointerType, StructType, Type, Value, VOID, F32, F64, I1, I8,
                  I64, pointer_to)
from ..runtime.api import RUNTIME_SIGNATURES
from . import ast
from .parser import parse_minic

_BASE_TYPES = {
    "void": VOID, "char": I8, "int": I64, "long": I64,
    "float": F32, "double": F64,
}


class _Loaded(ast.Expr):
    """Internal AST shim: an already-computed lvalue.

    Compound assignment (``x += e``) must evaluate the target address
    exactly once; the shim feeds the precomputed address back through
    the normal binary-operator lowering.
    """

    def __init__(self, line: int, address: "Value", value_type: "Type"):
        super().__init__(line)
        self.address = address
        self.value_type = value_type


class _Variable:
    """One named binding: the address holding the value, plus its type."""

    __slots__ = ("pointer", "type", "is_global")

    def __init__(self, pointer: Value, type_: Type, is_global: bool = False):
        self.pointer = pointer
        self.type = type_
        self.is_global = is_global


class MiniCLowering:
    """Lowers one parsed MiniC program into an IR module."""

    def __init__(self, program: ast.Program, module_name: str = "minic"):
        self.program = program
        self.module = Module(module_name)
        self.builder = IRBuilder()
        self.structs: Dict[str, StructType] = {}
        self.scopes: List[Dict[str, _Variable]] = []
        self.loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []
        self.strings: Dict[str, GlobalVariable] = {}
        self._string_count = 0
        self._entry_block: Optional[BasicBlock] = None
        self._body_block: Optional[BasicBlock] = None
        self.current_fn: Optional[Function] = None
        self._known_externals = dict(external_signatures())
        self._known_externals.update(RUNTIME_SIGNATURES)

    # -- driver ------------------------------------------------------------

    def run(self) -> Module:
        for struct in self.program.structs:
            self._lower_struct(struct)
        for gdef in self.program.globals:
            self._lower_global(gdef)
        # Declare every function first so mutual references work.
        for fdef in self.program.functions:
            self._declare_function(fdef)
        for fdef in self.program.functions:
            if fdef.body is not None:
                self._lower_function(fdef)
        return self.module

    # -- types ---------------------------------------------------------------

    def resolve_type(self, spec: ast.TypeSpec, line: int = 0) -> Type:
        if spec.base.startswith("struct "):
            name = spec.base[len("struct "):]
            base = self.structs.get(name)
            if base is None:
                raise FrontendError(f"unknown struct {name!r}", line)
        else:
            base = _BASE_TYPES.get(spec.base)
            if base is None:
                raise FrontendError(f"unknown type {spec.base!r}", line)
        result: Type = base
        for _ in range(spec.pointers):
            result = pointer_to(result)
        for dim in reversed(spec.array_dims):
            if dim < 0:
                raise FrontendError(
                    "array dimension must be inferable here", line)
            result = ArrayType(result, dim)
        return result

    def _lower_struct(self, struct: ast.StructDef) -> None:
        fields = [(f.name, self.resolve_type(f.type_spec, f.line))
                  for f in struct.fields]
        self.structs[struct.name] = self.module.add_struct(
            StructType(struct.name, fields))

    # -- globals ----------------------------------------------------------------

    def _lower_global(self, gdef: ast.GlobalDef) -> None:
        spec = gdef.type_spec
        dims = list(spec.array_dims)
        if dims and dims[0] == -1:
            dims[0] = self._infer_dim(gdef, spec)
        resolved = self.resolve_type(
            ast.TypeSpec(spec.base, spec.pointers, tuple(dims)), gdef.line)
        init = self._constant_initializer(resolved, gdef.init,
                                          gdef.init_list, gdef.line)
        self.module.add_global(gdef.name, resolved, init, gdef.is_const)

    def _infer_dim(self, gdef: ast.GlobalDef, spec: ast.TypeSpec) -> int:
        if gdef.init_list is not None:
            return len(gdef.init_list)
        if isinstance(gdef.init, ast.StringLiteral):
            return len(gdef.init.value.encode("utf-8")) + 1
        raise FrontendError(
            f"global {gdef.name}: cannot infer array dimension", gdef.line)

    def _constant_initializer(self, type_: Type, init: Optional[ast.Expr],
                              init_list: Optional[list], line: int):
        if init is None and init_list is None:
            return None
        if init_list is not None:
            if isinstance(type_, ArrayType):
                return [self._constant_initializer(type_.element, item, None,
                                                   line)
                        if not isinstance(item, list)
                        else self._constant_initializer(type_.element, None,
                                                        item, line)
                        for item in init_list]
            if isinstance(type_, StructType):
                return [self._constant_initializer(field_type, item, None,
                                                   line)
                        if not isinstance(item, list)
                        else self._constant_initializer(field_type, None,
                                                        item, line)
                        for item, (_, field_type)
                        in zip(init_list, type_.fields)]
            raise FrontendError("brace initializer for scalar", line)
        return self._constant_scalar(type_, init, line)

    def _constant_scalar(self, type_: Type, expr: ast.Expr, line: int):
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.CharLiteral):
            return expr.value
        if isinstance(expr, ast.FloatLiteral):
            return expr.value
        if isinstance(expr, ast.Unary) and expr.op == "-":
            inner = self._constant_scalar(type_, expr.operand, line)
            return -inner
        if isinstance(expr, ast.StringLiteral):
            if isinstance(type_, ArrayType) and type_.element == I8:
                return expr.value
            gv = self._intern_string(expr.value)
            return GlobalRef(gv.name)
        if isinstance(expr, ast.NameRef):
            if expr.name in self.module.globals:
                return GlobalRef(expr.name)
        raise FrontendError("global initializer must be constant", line)

    def _intern_string(self, text: str) -> GlobalVariable:
        gv = self.strings.get(text)
        if gv is None:
            name = f".str{self._string_count}"
            self._string_count += 1
            data = text.encode("utf-8")
            gv = self.module.add_global(name, ArrayType(I8, len(data) + 1),
                                        text, is_read_only=True)
            self.strings[text] = gv
        return gv

    # -- functions ------------------------------------------------------------------

    def _declare_function(self, fdef: ast.FunctionDef) -> None:
        if fdef.name in self.module.functions:
            return
        param_types = [self.resolve_type(p.type_spec, p.line)
                       for p in fdef.params]
        return_type = self.resolve_type(fdef.return_type, fdef.line)
        if fdef.is_kernel:
            if return_type != VOID:
                raise FrontendError(
                    f"kernel {fdef.name} must return void", fdef.line)
            if not param_types or param_types[0] != I64:
                raise FrontendError(
                    f"kernel {fdef.name}: first parameter must be the "
                    "thread id (long)", fdef.line)
        self.module.add_function(
            fdef.name, FunctionType(return_type, param_types),
            [p.name for p in fdef.params], fdef.is_kernel)

    def _lower_function(self, fdef: ast.FunctionDef) -> None:
        fn = self.module.get_function(fdef.name)
        self.current_fn = fn
        self._entry_block = fn.new_block("entry")
        self._body_block = fn.new_block("body")
        self.builder.position_at_end(self._body_block)
        self.scopes = [{}]
        # Spill every parameter to a stack slot (clang -O0 style).
        for arg in fn.args:
            slot = self._entry_alloca(arg.type, arg.name)
            self.builder.store(arg, slot)
            self.scopes[0][arg.name] = _Variable(slot, arg.type)
        self._lower_block(fdef.body)
        if not self.builder.block.is_terminated:
            self._emit_default_return(fn)
        entry_builder = IRBuilder(self._entry_block)
        entry_builder.br(self._body_block)
        # Drop what no edge reaches: the join after an if whose arms
        # both return, or after a for that only leaves by returning,
        # and whatever was lowered into it.
        reachable = reachable_blocks(fn)
        fn.blocks = [block for block in fn.blocks if block in reachable]
        self.current_fn = None

    def _emit_default_return(self, fn: Function) -> None:
        if fn.return_type == VOID:
            self.builder.ret()
        elif fn.return_type.is_float:
            self.builder.ret(self.builder.const(fn.return_type, 0.0))
        else:
            self.builder.ret(self.builder.const(fn.return_type, 0))

    def _entry_alloca(self, type_: Type, hint: str) -> Value:
        """Allocate a stack slot in the entry block."""
        assert self._entry_block is not None
        saved = self.builder.block
        self.builder.position_at_end(self._entry_block)
        slot = self.builder.alloca(type_, 1, "")
        slot.name = self.current_fn.unique_name(f"{hint}.addr")
        self.builder.position_at_end(saved)
        return slot

    # -- scopes ----------------------------------------------------------------------

    def _lookup(self, name: str, line: int) -> _Variable:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        gv = self.module.globals.get(name)
        if gv is not None:
            return _Variable(gv, gv.value_type, is_global=True)
        raise FrontendError(f"use of undeclared identifier {name!r}", line)

    # -- statements ---------------------------------------------------------------------

    def _lower_block(self, block: ast.Block) -> None:
        self.scopes.append({})
        for stmt in block.statements:
            self._lower_statement(stmt)
            if self.builder.block.is_terminated:
                break  # unreachable code after return/break/continue
        self.scopes.pop()

    def _lower_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.DeclGroup):
            for declaration in stmt.declarations:
                self._lower_statement(declaration)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._rvalue(stmt.expr)
        elif isinstance(stmt, ast.Declaration):
            self._lower_declaration(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise FrontendError("break outside a loop", stmt.line)
            self.builder.br(self.loop_stack[-1][1])
        elif isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                raise FrontendError("continue outside a loop", stmt.line)
            self.builder.br(self.loop_stack[-1][0])
        else:
            raise FrontendError(f"cannot lower {type(stmt).__name__}",
                                stmt.line)

    def _lower_declaration(self, decl: ast.Declaration) -> None:
        spec = decl.type_spec
        type_ = self.resolve_type(spec, decl.line)
        slot = self._entry_alloca(type_, decl.name)
        self.scopes[-1][decl.name] = _Variable(slot, type_)
        if isinstance(decl.init, ast.StringLiteral) \
                and isinstance(type_, ArrayType) and type_.element == I8:
            # char buffer[N] = "text": copy bytes, zero-fill the rest.
            data = decl.init.value.encode("utf-8") + b"\x00"
            if len(data) > type_.count:
                raise FrontendError(
                    f"string initializer too long for {decl.name}",
                    decl.line)
            for index in range(type_.count):
                byte = data[index] if index < len(data) else 0
                element_ptr = self.builder.gep(slot, [0, index])
                self.builder.store(self.builder.const(I8, byte),
                                   element_ptr)
        elif decl.init is not None:
            value = self._rvalue(decl.init)
            self.builder.store(self._convert(value, type_, decl.line), slot)
        elif decl.init_list is not None:
            if not isinstance(type_, ArrayType):
                raise FrontendError("brace initializer for scalar",
                                    decl.line)
            for i, item in enumerate(decl.init_list):
                element_ptr = self.builder.gep(slot, [0, i])
                value = self._rvalue(item)
                self.builder.store(
                    self._convert(value, type_.element, decl.line),
                    element_ptr)

    def _lower_if(self, stmt: ast.If) -> None:
        fn = self.current_fn
        then_block = fn.new_block("if.then")
        else_block = fn.new_block("if.else") if stmt.else_body else None
        end_block = fn.new_block("if.end")
        cond = self._condition(stmt.cond)
        false_target = else_block if else_block is not None else end_block
        self.builder.cbr(cond, then_block, false_target)
        self.builder.position_at_end(then_block)
        self._lower_statement(stmt.then_body)
        if not self.builder.block.is_terminated:
            self.builder.br(end_block)
        if else_block is not None:
            self.builder.position_at_end(else_block)
            self._lower_statement(stmt.else_body)
            if not self.builder.block.is_terminated:
                self.builder.br(end_block)
        self.builder.position_at_end(end_block)

    def _lower_while(self, stmt: ast.While) -> None:
        fn = self.current_fn
        head = fn.new_block("while.head")
        body = fn.new_block("while.body")
        end = fn.new_block("while.end")
        self.builder.br(head)
        self.builder.position_at_end(head)
        self.builder.cbr(self._condition(stmt.cond), body, end)
        self.builder.position_at_end(body)
        self.loop_stack.append((head, end))
        self._lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(head)
        self.builder.position_at_end(end)

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        fn = self.current_fn
        body = fn.new_block("do.body")
        head = fn.new_block("do.cond")
        end = fn.new_block("do.end")
        self.builder.br(body)
        self.builder.position_at_end(body)
        self.loop_stack.append((head, end))
        self._lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(head)
        self.builder.position_at_end(head)
        self.builder.cbr(self._condition(stmt.cond), body, end)
        self.builder.position_at_end(end)

    def _lower_for(self, stmt: ast.For) -> None:
        fn = self.current_fn
        self.scopes.append({})
        if stmt.init is not None:
            self._lower_statement(stmt.init)
        head = fn.new_block("for.head")
        body = fn.new_block("for.body")
        step = fn.new_block("for.step")
        end = fn.new_block("for.end")
        self.builder.br(head)
        self.builder.position_at_end(head)
        if stmt.cond is not None:
            self.builder.cbr(self._condition(stmt.cond), body, end)
        else:
            self.builder.br(body)
        self.builder.position_at_end(body)
        self.loop_stack.append((step, end))
        self._lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(step)
        self.builder.position_at_end(step)
        if stmt.step is not None:
            self._rvalue(stmt.step)
        self.builder.br(head)
        self.builder.position_at_end(end)
        self.scopes.pop()

    def _lower_return(self, stmt: ast.Return) -> None:
        fn = self.current_fn
        if stmt.value is None:
            if fn.return_type != VOID:
                raise FrontendError(
                    f"{fn.name}: non-void function returns nothing",
                    stmt.line)
            self.builder.ret()
            return
        if fn.return_type == VOID:
            raise FrontendError(
                f"{fn.name}: void function returns a value", stmt.line)
        value = self._rvalue(stmt.value)
        self.builder.ret(self._convert(value, fn.return_type, stmt.line))

    # -- lvalues --------------------------------------------------------------------------

    def _lvalue(self, expr: ast.Expr) -> Tuple[Value, Type]:
        """Lower to (address, value type)."""
        if isinstance(expr, ast.NameRef):
            var = self._lookup(expr.name, expr.line)
            return var.pointer, var.type
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer = self._rvalue(expr.operand)
            if not isinstance(pointer.type, PointerType):
                raise FrontendError("dereference of non-pointer", expr.line)
            return pointer, pointer.type.pointee
        if isinstance(expr, ast.Index):
            return self._index_lvalue(expr)
        if isinstance(expr, ast.Member):
            return self._member_lvalue(expr)
        raise FrontendError("expression is not assignable", expr.line)

    def _index_lvalue(self, expr: ast.Index) -> Tuple[Value, Type]:
        base_type = self._static_lvalue_type(expr.base)
        index = self._as_int(self._rvalue(expr.index), expr.line)
        if base_type is not None and isinstance(base_type, ArrayType):
            base_ptr, _ = self._lvalue(expr.base)
            element_ptr = self.builder.gep(base_ptr, [self.builder.i64(0),
                                                      index])
            return element_ptr, element_ptr.type.pointee
        pointer = self._rvalue(expr.base)
        if not isinstance(pointer.type, PointerType):
            raise FrontendError("subscript of non-pointer", expr.line)
        element_ptr = self.builder.gep(pointer, [index])
        return element_ptr, pointer.type.pointee

    def _member_lvalue(self, expr: ast.Member) -> Tuple[Value, Type]:
        if expr.arrow:
            base = self._rvalue(expr.base)
            if not isinstance(base.type, PointerType) or \
                    not isinstance(base.type.pointee, StructType):
                raise FrontendError("-> on non-struct-pointer", expr.line)
            struct = base.type.pointee
            base_ptr = base
        else:
            base_ptr, struct = self._lvalue(expr.base)
            if not isinstance(struct, StructType):
                raise FrontendError(". on non-struct", expr.line)
        index = struct.field_index(expr.field_name)
        field_ptr = self.builder.gep(base_ptr, [self.builder.i64(0),
                                                self.builder.i64(index)])
        return field_ptr, struct.fields[index][1]

    def _static_lvalue_type(self, expr: ast.Expr) -> Optional[Type]:
        """Type an lvalue expression without emitting code (best effort)."""
        if isinstance(expr, ast.NameRef):
            try:
                return self._lookup(expr.name, expr.line).type
            except FrontendError:
                return None
        if isinstance(expr, ast.Index):
            base = self._static_lvalue_type(expr.base)
            if isinstance(base, ArrayType):
                return base.element
            if isinstance(base, PointerType):
                return base.pointee
            return None
        if isinstance(expr, ast.Unary) and expr.op == "*":
            base = self._static_lvalue_type(expr.operand)
            if isinstance(base, PointerType):
                return base.pointee
            return None
        if isinstance(expr, ast.Member):
            base = self._static_lvalue_type(expr.base)
            if expr.arrow and isinstance(base, PointerType):
                base = base.pointee
            if isinstance(base, StructType):
                try:
                    return base.fields[base.field_index(expr.field_name)][1]
                except KeyError:
                    return None
        return None

    # -- rvalues -----------------------------------------------------------------------------

    def _rvalue(self, expr: ast.Expr) -> Value:
        if isinstance(expr, _Loaded):
            return self._load_or_decay(expr.address, expr.value_type)
        if isinstance(expr, ast.IntLiteral):
            return self.builder.i64(expr.value)
        if isinstance(expr, ast.CharLiteral):
            return self.builder.const(I8, expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return self.builder.const(F32 if expr.is_single else F64,
                                      expr.value)
        if isinstance(expr, ast.StringLiteral):
            gv = self._intern_string(expr.value)
            return self.builder.gep(gv, [0, 0])
        if isinstance(expr, ast.NameRef):
            return self._load_variable(expr)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._lower_conditional(expr)
        if isinstance(expr, ast.CallExpr):
            return self._lower_call(expr)
        if isinstance(expr, ast.LaunchExpr):
            return self._lower_launch(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            address, value_type = self._lvalue(expr)
            return self._load_or_decay(address, value_type)
        if isinstance(expr, ast.CastExpr):
            value = self._rvalue(expr.operand)
            target = self.resolve_type(expr.target, expr.line)
            return self._convert(value, target, expr.line, explicit=True)
        if isinstance(expr, ast.SizeofExpr):
            return self._lower_sizeof(expr)
        raise FrontendError(f"cannot lower {type(expr).__name__}", expr.line)

    def _load_variable(self, expr: ast.NameRef) -> Value:
        var = self._lookup(expr.name, expr.line)
        return self._load_or_decay(var.pointer, var.type)

    def _load_or_decay(self, address: Value, value_type: Type) -> Value:
        if isinstance(value_type, ArrayType):
            # Arrays decay to a pointer to their first element.
            return self.builder.gep(address, [0, 0])
        if isinstance(value_type, StructType):
            return address  # structs are manipulated by address
        return self.builder.load(address)

    def _lower_sizeof(self, expr: ast.SizeofExpr) -> Value:
        if expr.target is not None:
            type_ = self.resolve_type(expr.target, expr.line)
        else:
            type_ = self._static_lvalue_type(expr.operand)
            if type_ is None:
                raise FrontendError(
                    "sizeof(expression) needs a statically typed operand",
                    expr.line)
        return self.builder.i64(type_.size)

    def _lower_unary(self, expr: ast.Unary) -> Value:
        op = expr.op
        if op == "&":
            address, _ = self._lvalue(expr.operand)
            return address
        if op == "*":
            address, value_type = self._lvalue(expr)
            return self._load_or_decay(address, value_type)
        if op == "-":
            value = self._rvalue(expr.operand)
            value = self._promote_arith(value, expr.line)
            zero = self.builder.const(value.type, 0)
            return self.builder.sub(zero, value)
        if op == "~":
            value = self._as_int(self._rvalue(expr.operand), expr.line)
            return self.builder.binop("xor", value, -1)
        if op == "!":
            cond = self._condition(expr.operand)
            flipped = self.builder.binop(
                "xor", cond, self.builder.const(I1, 1))
            return self.builder.cast("zext", flipped, I64)
        if op in ("++", "--", "p++", "p--"):
            return self._lower_incdec(expr)
        raise FrontendError(f"unary {op}", expr.line)

    def _lower_incdec(self, expr: ast.Unary) -> Value:
        address, value_type = self._lvalue(expr.operand)
        old = self.builder.load(address)
        delta = 1 if expr.op in ("++", "p++") else -1
        if isinstance(value_type, PointerType):
            new = self.builder.gep(old, [delta])
        elif value_type.is_float:
            new = self.builder.add(old, self.builder.const(value_type,
                                                           float(delta)))
        else:
            new = self.builder.add(old, self.builder.const(value_type,
                                                           delta))
        self.builder.store(new, address)
        return old if expr.op.startswith("p") else new

    # -- binary operators ------------------------------------------------------

    def _lower_binary(self, expr: ast.Binary) -> Value:
        op = expr.op
        if op == ",":
            self._rvalue(expr.lhs)
            return self._rvalue(expr.rhs)
        if op in ("&&", "||"):
            return self._lower_logical(expr)
        lhs = self._rvalue(expr.lhs)
        rhs = self._rvalue(expr.rhs)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self._lower_comparison(op, lhs, rhs, expr.line)
        if op in ("+", "-") and (lhs.type.is_pointer or rhs.type.is_pointer):
            return self._lower_pointer_arith(op, lhs, rhs, expr.line)
        lhs, rhs = self._usual_conversions(lhs, rhs, expr.line)
        ir_op = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
                 "&": "and", "|": "or", "^": "xor", "<<": "shl",
                 ">>": "shr"}.get(op)
        if ir_op is None:
            raise FrontendError(f"binary {op}", expr.line)
        if ir_op in ("and", "or", "xor", "shl", "shr", "rem") \
                and lhs.type.is_float and op != "%":
            raise FrontendError(f"{op} requires integers", expr.line)
        if op == "%" and lhs.type.is_float:
            ir_op = "rem"
        return self.builder.binop(ir_op, lhs, rhs)

    def _lower_comparison(self, op: str, lhs: Value, rhs: Value,
                          line: int) -> Value:
        pred = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt",
                ">=": "ge"}[op]
        if lhs.type.is_pointer or rhs.type.is_pointer:
            lhs = self._pointer_as_int(lhs)
            rhs = self._pointer_as_int(rhs)
        lhs, rhs = self._usual_conversions(lhs, rhs, line)
        flag = self.builder.cmp(pred, lhs, rhs)
        return self.builder.cast("zext", flag, I64)

    def _pointer_as_int(self, value: Value) -> Value:
        if value.type.is_pointer:
            return self.builder.cast("ptrtoint", value, I64)
        return value

    def _lower_pointer_arith(self, op: str, lhs: Value, rhs: Value,
                             line: int) -> Value:
        if lhs.type.is_pointer and rhs.type.is_pointer:
            if op != "-":
                raise FrontendError("pointer + pointer", line)
            left = self.builder.cast("ptrtoint", lhs, I64)
            right = self.builder.cast("ptrtoint", rhs, I64)
            diff = self.builder.sub(left, right)
            element = lhs.type.pointee.size
            return self.builder.div(diff, element)
        if rhs.type.is_pointer:  # int + ptr
            lhs, rhs = rhs, lhs
        offset = self._as_int(rhs, line)
        if op == "-":
            offset = self.builder.sub(self.builder.i64(0),
                                      self.builder.int_cast(offset, I64))
        return self.builder.gep(lhs, [offset])

    def _lower_logical(self, expr: ast.Binary) -> Value:
        fn = self.current_fn
        result = self._entry_alloca(I64, "logical")
        rhs_block = fn.new_block("logic.rhs")
        end_block = fn.new_block("logic.end")
        lhs_cond = self._condition(expr.lhs)
        lhs_int = self.builder.cast("zext", lhs_cond, I64)
        self.builder.store(lhs_int, result)
        if expr.op == "&&":
            self.builder.cbr(lhs_cond, rhs_block, end_block)
        else:
            self.builder.cbr(lhs_cond, end_block, rhs_block)
        self.builder.position_at_end(rhs_block)
        rhs_cond = self._condition(expr.rhs)
        rhs_int = self.builder.cast("zext", rhs_cond, I64)
        self.builder.store(rhs_int, result)
        self.builder.br(end_block)
        self.builder.position_at_end(end_block)
        return self.builder.load(result)

    def _lower_conditional(self, expr: ast.Conditional) -> Value:
        fn = self.current_fn
        true_block = fn.new_block("cond.true")
        false_block = fn.new_block("cond.false")
        end_block = fn.new_block("cond.end")
        cond = self._condition(expr.cond)
        self.builder.cbr(cond, true_block, false_block)

        self.builder.position_at_end(true_block)
        true_value = self._rvalue(expr.if_true)
        true_exit = self.builder.block

        self.builder.position_at_end(false_block)
        false_value = self._rvalue(expr.if_false)
        false_exit = self.builder.block

        # Unify the arm types, then funnel through a stack slot.
        target = self._common_type(true_value.type, false_value.type)
        result = self._entry_alloca(target, "cond")
        self.builder.position_at_end(true_exit)
        self.builder.store(self._convert(true_value, target, expr.line),
                           result)
        self.builder.br(end_block)
        self.builder.position_at_end(false_exit)
        self.builder.store(self._convert(false_value, target, expr.line),
                           result)
        self.builder.br(end_block)
        self.builder.position_at_end(end_block)
        return self.builder.load(result)

    def _lower_assign(self, expr: ast.Assign) -> Value:
        address, value_type = self._lvalue(expr.target)
        if expr.op == "=":
            value = self._rvalue(expr.value)
            converted = self._convert(value, value_type, expr.line)
            self.builder.store(converted, address)
            return converted
        # Compound assignment: load, operate, store.
        op = expr.op[:-1]
        synthetic = ast.Binary(expr.line, op, _Loaded(expr.line, address,
                                                      value_type),
                               expr.value)
        value = self._lower_binary(synthetic)
        converted = self._convert(value, value_type, expr.line)
        self.builder.store(converted, address)
        return converted

    def _lower_call(self, expr: ast.CallExpr) -> Value:
        callee = self.module.functions.get(expr.name)
        if callee is None:
            signature = self._known_externals.get(expr.name)
            if signature is None:
                raise FrontendError(f"call to unknown function "
                                    f"{expr.name!r}", expr.line)
            callee = self.module.declare_function(expr.name, signature)
        param_types = callee.type.param_types
        if len(expr.args) != len(param_types):
            raise FrontendError(
                f"{expr.name} expects {len(param_types)} arguments, got "
                f"{len(expr.args)}", expr.line)
        args = [self._convert(self._rvalue(arg), param, expr.line)
                for arg, param in zip(expr.args, param_types)]
        return self.builder.call(callee, args)

    def _lower_launch(self, expr: ast.LaunchExpr) -> Value:
        kernel = self.module.functions.get(expr.kernel)
        if kernel is None or not kernel.is_kernel:
            raise FrontendError(f"__launch of unknown kernel "
                                f"{expr.kernel!r}", expr.line)
        grid = self._convert(self._rvalue(expr.grid), I64, expr.line)
        param_types = kernel.type.param_types[1:]
        if len(expr.args) != len(param_types):
            raise FrontendError(
                f"kernel {expr.kernel} expects {len(param_types)} "
                f"arguments, got {len(expr.args)}", expr.line)
        args = [self._convert(self._rvalue(arg), param, expr.line)
                for arg, param in zip(expr.args, param_types)]
        self.builder.launch(kernel, grid, args)
        return self.builder.i64(0)

    # -- conditions and conversions ------------------------------------------

    def _condition(self, expr: ast.Expr) -> Value:
        """Lower an expression used as a branch condition to an i1."""
        if isinstance(expr, ast.Binary) and expr.op in (
                "==", "!=", "<", "<=", ">", ">="):
            lhs = self._rvalue(expr.lhs)
            rhs = self._rvalue(expr.rhs)
            pred = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le",
                    ">": "gt", ">=": "ge"}[expr.op]
            if lhs.type.is_pointer or rhs.type.is_pointer:
                lhs = self._pointer_as_int(lhs)
                rhs = self._pointer_as_int(rhs)
            lhs, rhs = self._usual_conversions(lhs, rhs, expr.line)
            return self.builder.cmp(pred, lhs, rhs)
        if isinstance(expr, ast.Unary) and expr.op == "!":
            inner = self._condition(expr.operand)
            return self.builder.binop("xor", inner,
                                      self.builder.const(I1, 1))
        value = self._rvalue(expr)
        if value.type == I1:
            return value
        if value.type.is_float:
            zero = self.builder.const(value.type, 0.0)
            return self.builder.cmp("ne", value, zero)
        if value.type.is_pointer:
            value = self.builder.cast("ptrtoint", value, I64)
        return self.builder.cmp("ne", value,
                                self.builder.const(value.type, 0))

    def _as_int(self, value: Value, line: int) -> Value:
        if isinstance(value.type, IntType):
            return self.builder.int_cast(value, I64) \
                if value.type != I64 else value
        if value.type.is_float:
            return self.builder.cast("fptosi", value, I64)
        raise FrontendError(f"expected an integer, got {value.type}", line)

    def _promote_arith(self, value: Value, line: int) -> Value:
        if isinstance(value.type, IntType) and value.type.bits < 64:
            return self.builder.int_cast(value, I64)
        return value

    def _common_type(self, left: Type, right: Type) -> Type:
        if left == right:
            return left
        if left.is_pointer:
            return left
        if right.is_pointer:
            return right
        if F64 in (left, right):
            return F64
        if left.is_float or right.is_float:
            return F64 if F64 in (left, right) else F32
        return I64

    def _usual_conversions(self, lhs: Value, rhs: Value,
                           line: int) -> Tuple[Value, Value]:
        target = self._common_type(lhs.type, rhs.type)
        if target.is_pointer:
            raise FrontendError("invalid pointer arithmetic", line)
        return (self._convert(lhs, target, line),
                self._convert(rhs, target, line))

    def _convert(self, value: Value, target: Type, line: int,
                 explicit: bool = False) -> Value:
        source = value.type
        if source == target:
            return value
        builder = self.builder
        if isinstance(source, IntType) and isinstance(target, IntType):
            if source == I1:
                return builder.cast("zext", value, target)
            return builder.int_cast(value, target)
        if isinstance(source, IntType) and isinstance(target, FloatType):
            return builder.cast("sitofp",
                                builder.int_cast(value, I64)
                                if source != I64 else value, target)
        if isinstance(source, FloatType) and isinstance(target, IntType):
            as_int = builder.cast("fptosi", value, I64)
            return builder.int_cast(as_int, target) \
                if target != I64 else as_int
        if isinstance(source, FloatType) and isinstance(target, FloatType):
            kind = "fpext" if source.size < target.size else "fptrunc"
            return builder.cast(kind, value, target)
        if source.is_pointer and target.is_pointer:
            return builder.bitcast(value, target)
        if source.is_pointer and isinstance(target, IntType):
            as_int = builder.cast("ptrtoint", value, I64)
            return builder.int_cast(as_int, target) \
                if target != I64 else as_int
        if isinstance(source, IntType) and target.is_pointer:
            widened = builder.int_cast(value, I64) \
                if source != I64 else value
            return builder.cast("inttoptr", widened, target)
        raise FrontendError(f"cannot convert {source} to {target}", line)


def compile_minic(source: str, module_name: str = "minic") -> Module:
    """Front door: MiniC source text -> verified IR module."""
    from ..ir import verify_module

    program = parse_minic(source)
    module = MiniCLowering(program, module_name).run()
    verify_module(module)
    return module
