"""Reference outputs the benchmark checks every op against.

``bench/golden.json`` holds, for each of the 24 paper programs and each
of the 6 serve-mix artifacts, the exit code, stdout and the sha256 of
the sorted globals image of one run under the tree-walking reference
interpreter at the sequential level: the untransformed program, run by
the engine every other engine must match.  Regenerate it from the
repository root with::

    python3 bench/golden.py

The fresh-compile workload needs no entry here: the program generator
carries its own pure-Python oracle.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "bench" / "golden.json"


def globals_sha256(items: Iterable[Tuple[str, bytes]]) -> str:
    """Digest of a globals image given as sorted (name, bytes) pairs."""
    digest = hashlib.sha256()
    for name, data in items:
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def observed(observable: Tuple) -> Dict[str, object]:
    """The checked fields of ``ExecutionResult.observable()``."""
    exit_code, stdout, globals_items = observable
    return {"exit_code": exit_code, "stdout": list(stdout),
            "globals_sha256": globals_sha256(globals_items)}


def matches(observable: Tuple, expected: Dict[str, object]) -> bool:
    got = observed(observable)
    return all(expected.get(key) == value for key, value in got.items())


def serve_artifacts() -> List[Tuple[str, str, str]]:
    """(label, resolved source, artifact name) of every serve-mix
    artifact."""
    from repro.serve import ServeRequest
    from repro.serve.mixes import MIX_ARGS, MIX_SOURCES
    out = []
    for label, template in MIX_SOURCES:
        for arg in MIX_ARGS:
            source, artifact = ServeRequest(
                request_id=0, source=template, args=(arg,)).resolve_source()
            out.append((f"{label}({arg})", source, artifact))
    return out


def source_sha256(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def load(path: Path = GOLDEN_PATH) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def generate() -> Dict[str, object]:
    from repro.api import Session
    from repro.core.config import CgcmConfig, OptLevel
    from repro.workloads import ALL_WORKLOADS

    config = CgcmConfig(opt_level=OptLevel.SEQUENTIAL, engine="tree")
    session = Session()

    def reference(source: str, name: str) -> Dict[str, object]:
        result = session.compile(source, config, name=name).run()
        return observed(result.observable())

    programs = {w.name: reference(w.source, w.name) for w in ALL_WORKLOADS}
    serve = {}
    for label, source, _ in serve_artifacts():
        serve[label] = {"source_sha256": source_sha256(source),
                        **reference(source, label)}
    return {"reference": "tree-walking interpreter, sequential level",
            "generator": "python3 bench/golden.py",
            "programs": programs, "serve": serve}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
