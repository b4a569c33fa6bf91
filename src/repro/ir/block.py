"""Basic blocks: straight-line instruction sequences with one terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional, TYPE_CHECKING

from ..errors import IRError
from .instructions import Instruction, Terminator

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


class BasicBlock:
    """A labelled sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]  # type: ignore[return-value]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    @property
    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors if term is not None else []

    def append(self, inst: Instruction) -> Instruction:
        """Add an instruction at the end (before nothing; caller ensures
        the block is not already terminated)."""
        if self.is_terminated:
            raise IRError(f"block {self.name} is already terminated")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        """Insert just before the terminator (or append if none)."""
        if self.is_terminated:
            return self.insert(len(self.instructions) - 1, inst)
        return self.append(inst)

    def index(self, inst: Instruction) -> int:
        return self.instructions.index(inst)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"
