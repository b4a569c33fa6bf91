"""Modules: a translation unit of globals and functions."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import IRError
from .function import Function
from .types import FunctionType, StructType, Type
from .values import GlobalVariable, Initializer


class Module:
    """A complete IR program: globals, functions, and named structs."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.globals: Dict[str, GlobalVariable] = {}
        self.functions: Dict[str, Function] = {}
        self.structs: Dict[str, StructType] = {}

    # -- globals ---------------------------------------------------------

    def add_global(self, name: str, value_type: Type,
                   initializer: Initializer = None,
                   is_read_only: bool = False) -> GlobalVariable:
        if name in self.globals:
            raise IRError(f"duplicate global @{name}")
        gv = GlobalVariable(name, value_type, initializer, is_read_only)
        self.globals[name] = gv
        return gv

    def get_global(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError:
            raise IRError(f"unknown global @{name}") from None

    # -- functions -------------------------------------------------------

    def add_function(self, name: str, ftype: FunctionType,
                     param_names: Optional[Sequence[str]] = None,
                     is_kernel: bool = False) -> Function:
        if name in self.functions:
            raise IRError(f"duplicate function @{name}")
        fn = Function(name, ftype, param_names, is_kernel, self)
        self.functions[name] = fn
        return fn

    def declare_function(self, name: str, ftype: FunctionType) -> Function:
        """Declare an external; idempotent if the signature matches."""
        existing = self.functions.get(name)
        if existing is not None:
            if existing.type != ftype:
                raise IRError(f"conflicting declarations of @{name}")
            return existing
        return self.add_function(name, ftype)

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"unknown function @{name}") from None

    # -- structs ---------------------------------------------------------

    def add_struct(self, struct: StructType) -> StructType:
        if struct.name in self.structs:
            raise IRError(f"duplicate struct %{struct.name}")
        self.structs[struct.name] = struct
        return struct

    # -- iteration -------------------------------------------------------

    def defined_functions(self) -> Iterator[Function]:
        return (f for f in self.functions.values() if not f.is_declaration)

    def kernels(self) -> List[Function]:
        return [f for f in self.functions.values() if f.is_kernel]

    def __repr__(self) -> str:
        return (f"<Module {self.name}: {len(self.globals)} globals, "
                f"{len(self.functions)} functions>")
