"""Reference trace-document digests that the benchmark checks every run.

``reference.json`` holds the sha256 of the ``svcgov run --pack hospital``
and ``--pack retail`` trace documents and of every case of each workload
at seed 0 with the default sizes.  Regenerate it only when a change is
meant to alter traces:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import workloads
from svcgov import orchestrator
from svcgov.harness import baselines
from svcgov.harness.packs import PACK_NAMES, load_pack

PATH = Path(__file__).with_name("reference.json")
SEED = 0


def document_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pack_digests() -> dict[str, str]:
    """Digest of each pack's trace document as ``svcgov run --pack`` writes
    it (the document followed by a newline)."""
    out = {}
    for name in PACK_NAMES:
        scenario, cfg = load_pack(name)
        cfg = baselines.configure(cfg, baselines.FULL)
        doc = orchestrator.run(scenario, cfg).document(scenario.name, cfg)
        out[f"pack/{name}"] = document_digest(doc + "\n")
    return out


def case_digest(case, result) -> str:
    return document_digest(result.document(case.scenario.name, case.cfg))


def load() -> dict[str, str]:
    return json.loads(PATH.read_text(encoding="utf-8"))


def main() -> None:
    digests = pack_digests()
    for workload in workloads.WORKLOADS:
        for case in workloads.build(workload, SEED).cases:
            result = orchestrator.run(case.scenario, case.cfg, case.store)
            digests[case.label] = case_digest(case, result)
    PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {PATH.name}")


if __name__ == "__main__":
    main()
