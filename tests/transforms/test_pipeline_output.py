"""Pin the pass pipeline's output: the printed IR of every module.

For the 24 paper workloads and the first ten generated fuzz programs
(``generate_program(0, i)``), each compiled under the sequential, the
default optimized and the streams configuration, the sha256 of
``module_to_str(report.module)`` must equal the digest committed in
``pipeline_output.json``.  A pass refactor that claims to leave the
emitted IR unchanged is checked here, byte for byte.

Regenerate the JSON with::

    PYTHONPATH=src python tests/transforms/test_pipeline_output.py

Do that only when a change *means* to alter the emitted IR (a new
transformation, a different profitability rule), and say in the
change's description which modules moved and why.  Regenerating to
silence a refactor that was supposed to be output-neutral hides the
very regression this test exists to catch.
"""

import hashlib
import json
import os
from typing import Dict, Iterator, Tuple

from repro.core import CgcmCompiler, CgcmConfig, OptLevel
from repro.ir.printer import module_to_str
from repro.scenarios.generator import generate_program
from repro.workloads import ALL_WORKLOADS

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "pipeline_output.json")

#: Generated programs ``generate_program(0, i)`` for ``i`` below this.
GENERATED_COUNT = 10

CONFIGS = {
    "sequential": lambda: CgcmConfig(opt_level=OptLevel.SEQUENTIAL),
    "optimized": lambda: CgcmConfig(),
    "streams": lambda: CgcmConfig(streams=True),
}


def _sources() -> Iterator[Tuple[str, str]]:
    for workload in ALL_WORKLOADS:
        yield workload.name, workload.source
    for index in range(GENERATED_COUNT):
        program = generate_program(0, index)
        yield program.name, program.source


def pipeline_digests() -> Dict[str, str]:
    """``"<program>:<config>"`` -> sha256 of the compiled module's IR."""
    digests: Dict[str, str] = {}
    for name, source in _sources():
        for config_name, make_config in CONFIGS.items():
            report = CgcmCompiler(make_config()).compile_source(source, name)
            text = module_to_str(report.module)
            digests[f"{name}:{config_name}"] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
    return digests


def test_pipeline_output_matches_pinned_digests():
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)
    actual = pipeline_digests()
    assert sorted(actual) == sorted(pinned)
    changed = sorted(key for key in pinned if actual[key] != pinned[key])
    assert not changed, (
        f"{len(changed)} of {len(pinned)} modules print different IR: "
        + ", ".join(changed[:12]))


if __name__ == "__main__":
    with open(PINNED, "w", encoding="utf-8") as handle:
        json.dump(pipeline_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINNED}")
