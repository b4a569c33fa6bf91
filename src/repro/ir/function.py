"""Functions: named, typed, and made of basic blocks.

A function with no blocks is a *declaration* (an external like
``malloc`` or ``sqrt`` provided by the interpreter).  Functions whose
``is_kernel`` flag is set run on the simulated GPU and receive the
thread id as their first parameter.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, TYPE_CHECKING

from ..errors import IRError
from .block import BasicBlock
from .instructions import Instruction
from .types import FunctionType
from .values import Argument, FunctionValue

if TYPE_CHECKING:  # pragma: no cover
    from .module import Module


class Function(FunctionValue):
    """A function definition or declaration within a module."""

    def __init__(self, name: str, ftype: FunctionType,
                 param_names: Optional[Sequence[str]] = None,
                 is_kernel: bool = False,
                 module: Optional["Module"] = None):
        super().__init__(ftype, name)
        if param_names is None:
            param_names = [f"arg{i}" for i in range(len(ftype.param_types))]
        if len(param_names) != len(ftype.param_types):
            raise IRError(f"{name}: parameter name/type count mismatch")
        self.args: List[Argument] = [
            Argument(ty, pname, i, self)
            for i, (ty, pname) in enumerate(zip(ftype.param_types, param_names))
        ]
        self.is_kernel = is_kernel
        #: Set by the DOALL parallelizer on kernels it outlined from
        #: proven-independent loops; the multi-GPU layer only shards
        #: grids of marked kernels.
        self.is_doall = False
        self.module = module
        self.blocks: List[BasicBlock] = []
        self._name_counter = itertools.count()
        self._taken_names: Dict[str, int] = {}

    @property
    def type(self) -> FunctionType:
        return self._type

    @type.setter
    def type(self, value: FunctionType) -> None:
        self._type = value

    @property
    def return_type(self):
        return self.type.return_type

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry_block(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no body")
        return self.blocks[0]

    def new_block(self, hint: str = "bb") -> BasicBlock:
        """Create, name, and append a fresh basic block."""
        block = BasicBlock(self.unique_name(hint), self)
        self.blocks.append(block)
        return block

    def unique_name(self, hint: str = "t") -> str:
        """Return a register/block name unique within this function."""
        if hint not in self._taken_names:
            self._taken_names[hint] = 0
            return hint
        self._taken_names[hint] += 1
        candidate = f"{hint}.{self._taken_names[hint]}"
        while candidate in self._taken_names:
            self._taken_names[hint] += 1
            candidate = f"{hint}.{self._taken_names[hint]}"
        self._taken_names[candidate] = 0
        return candidate

    def instructions(self) -> Iterator[Instruction]:
        """Iterate every instruction in block order."""
        for block in self.blocks:
            yield from block.instructions

    def block_by_name(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(f"{self.name}: no block named {name}")

    def compute_uses(self) -> Dict[object, List[Instruction]]:
        """Map each value to the instructions that use it (recomputed)."""
        uses: Dict[object, List[Instruction]] = {}
        for inst in self.instructions():
            for op in inst.operands:
                uses.setdefault(op, []).append(inst)
        return uses

    def __repr__(self) -> str:
        kind = "kernel " if self.is_kernel else ""
        status = "decl" if self.is_declaration else f"{len(self.blocks)} blocks"
        return f"<{kind}Function @{self.name} ({status})>"
