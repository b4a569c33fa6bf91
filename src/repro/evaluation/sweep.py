"""Shared scaffolding of the ``BENCH_*.json`` sweeps.

A sweep module computes its rows, headline fields and table;
:class:`SweepReport` owns the ``ok`` verdict, the JSON header, the row
loop and ``write``.  Key order in a written file is part of its byte
identity.
"""

from __future__ import annotations

import json
import platform
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.compiler import ExecutionResult


class SweepRow:
    """A row that records its contract violations in ``mismatches``."""

    mismatches: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def status(self) -> str:
        return "ok" if self.ok else "DIVERGED"


class SweepReport:
    """Base of every sweep report.  A subclass sets the class
    attributes below, declares ``rows``, overrides :meth:`headline`
    (the fields between the header and the rows), and gives each row
    ``to_json()`` and a one-line ``summary()``."""

    #: Schema tag of the written file (bump on incompatible change).
    schema = ""
    #: The committed file the sweep regenerates by default.
    committed_path = ""
    #: JSON key of the row list.
    rows_key = "rows"
    rows: List

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def headline(self) -> Dict:
        return {}

    def to_json(self) -> Dict:
        return {"schema": self.schema,
                "python": platform.python_version(),
                **self.headline(),
                self.rows_key: [row.to_json() for row in self.rows]}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=False)
            handle.write("\n")

    def collect(self, rows: Iterable,
                progress: Optional[Callable] = None) -> "SweepReport":
        """Append each row as it is computed, calling ``progress``
        (if given) on it; returns the report."""
        for row in rows:
            self.rows.append(row)
            if progress is not None:
                progress(row)
        return self


def observable_mismatches(expected: ExecutionResult,
                          actual: ExecutionResult,
                          where: str) -> Tuple[str, ...]:
    """``()`` when the two runs' observables are byte-identical, else
    ``("observables differ <where>",)``."""
    if expected.observable() == actual.observable():
        return ()
    return (f"observables differ {where}",)
