"""Abstract syntax tree for MiniC.

Nodes are plain dataclasses carrying source line numbers for error
reporting.  Types at this level are *syntactic* (:class:`TypeSpec`);
they are resolved to IR types during lowering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


# -- type syntax -----------------------------------------------------------

@dataclass
class TypeSpec:
    """A declared C type: base name + pointer depth + array dims.

    ``base`` is one of ``char/int/long/float/double/void`` or
    ``struct <name>``; ``pointers`` counts ``*``; ``array_dims`` holds
    constant dimensions (outermost first) for array declarators.
    """

    base: str
    pointers: int = 0
    array_dims: Tuple[int, ...] = ()
    is_const: bool = False


# -- expressions ------------------------------------------------------------

@dataclass
class Expr:
    line: int = field(default=0, compare=False)


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class FloatLiteral(Expr):
    value: float = 0.0
    is_single: bool = False


@dataclass
class StringLiteral(Expr):
    value: str = ""


@dataclass
class CharLiteral(Expr):
    value: int = 0


@dataclass
class NameRef(Expr):
    name: str = ""


@dataclass
class Unary(Expr):
    """op in {'-', '!', '~', '*', '&', '++', '--', 'p++', 'p--'}."""
    op: str = ""
    operand: Optional[Expr] = None


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Optional[Expr] = None
    rhs: Optional[Expr] = None


@dataclass
class Assign(Expr):
    """``target = value`` or compound ``target op= value``."""
    op: str = "="
    target: Optional[Expr] = None
    value: Optional[Expr] = None


@dataclass
class Conditional(Expr):
    cond: Optional[Expr] = None
    if_true: Optional[Expr] = None
    if_false: Optional[Expr] = None


@dataclass
class CallExpr(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class LaunchExpr(Expr):
    """``__launch(kernel, grid, args...)``."""
    kernel: str = ""
    grid: Optional[Expr] = None
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    base: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class Member(Expr):
    """``base.field`` (arrow=False) or ``base->field`` (arrow=True)."""
    base: Optional[Expr] = None
    field_name: str = ""
    arrow: bool = False


@dataclass
class CastExpr(Expr):
    target: Optional[TypeSpec] = None
    operand: Optional[Expr] = None


@dataclass
class SizeofExpr(Expr):
    target: Optional[TypeSpec] = None
    operand: Optional[Expr] = None


# -- statements ----------------------------------------------------------------

@dataclass
class Stmt:
    line: int = field(default=0, compare=False)


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


@dataclass
class Declaration(Stmt):
    """One local variable declaration (possibly with initializer)."""
    type_spec: Optional[TypeSpec] = None
    name: str = ""
    init: Optional[Expr] = None
    init_list: Optional[List[Expr]] = None


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class DeclGroup(Stmt):
    """Several declarations from one statement (``int a, b;``); unlike
    a Block they share the enclosing scope."""
    declarations: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then_body: Optional[Stmt] = None
    else_body: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class DoWhile(Stmt):
    body: Optional[Stmt] = None
    cond: Optional[Expr] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# -- top level -------------------------------------------------------------------

@dataclass
class Param:
    type_spec: TypeSpec
    name: str
    line: int = 0


@dataclass
class FunctionDef:
    return_type: TypeSpec
    name: str
    params: List[Param]
    body: Optional[Block]          # None for a prototype
    is_kernel: bool = False
    line: int = 0


@dataclass
class GlobalDef:
    type_spec: TypeSpec
    name: str
    init: Optional[Expr] = None
    init_list: Optional[list] = None   # nested lists of Expr for arrays
    is_const: bool = False
    line: int = 0


@dataclass
class StructDef:
    name: str
    fields: List[Param] = field(default_factory=list)
    line: int = 0


@dataclass
class Program:
    functions: List[FunctionDef] = field(default_factory=list)
    globals: List[GlobalDef] = field(default_factory=list)
    structs: List[StructDef] = field(default_factory=list)
