"""Inputs of the three benchmark workloads, built from a seed.

A workload is a list of cases.  A case is one scenario run through
``orchestrator.run`` and then replayed through ``bench.scan_run`` (the
replay plus the exhaustive regret oracle).  The engine sees only the
generated scenarios, configurations and starting stores.

* ``family-sweep``: the four seeded bench families x the four subjects.
* ``long-horizon``: one full-stack retail run of several hundred ticks
  whose memory store grows with every deployment.
* ``large-ontology``: hospital substitution seeds on an ontology padded
  with synthetic refinement chains under an unused prefix.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "svcgov" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: engine source not found under {SRC}")
sys.path.insert(0, str(SRC))

from svcgov.harness import baselines, bench  # noqa: E402
from svcgov.harness.packs import load_pack, pack_dir  # noqa: E402
from svcgov.harness.scenario import config_from_data, scenario_from_data, scenario_to_data  # noqa: E402
from svcgov.memory import EMPTY_STORE, MemoryStore  # noqa: E402
from svcgov.orchestrator import OrchestratorConfig  # noqa: E402

WORKLOADS = ("family-sweep", "long-horizon", "large-ontology")

#: Set iteration order follows the string hash seed, and the engine's
#: ``any(...)`` scans over frozensets stop at the first hit, so call counts
#: (is_refinement: 161 to 226 per candidate) and times change from one
#: process to the next unless the hash seed is fixed.
HASH_SEED = "0"

#: Candidate family seeds drawn per workload seed when picking one seed per
#: scenario shape; 32 draws miss a shape of probability 1/3 with odds ~1e-5.
STRATA_DRAWS = 32

#: Long-horizon event cycle length in ticks: noise + degraded speech unit,
#: then a runtime failure two ticks later, then recovery two ticks after.
CYCLE = 6
#: Intent components failed in turn, one per cycle.
FAILING = ("display_lite", "touch_unit")
PAD_PREFIX = "pad"
#: Links per synthetic refinement chain.
PAD_CHAIN = 20
PAD_CATEGORIES = ("Agent", "Service", "Function", "Environment", "Interaction")


@dataclass(frozen=True)
class Sizes:
    subjects: tuple[str, ...] = baselines.SUBJECTS
    strata: int = 3  # at most this many seeds (one per shape) per family
    cycles: int = 50  # long-horizon cycles
    pad_concepts: int = 300
    setup_repeats: int = 3


DEFAULT = Sizes()
TINY = Sizes(subjects=(baselines.FULL,), strata=1, cycles=3, pad_concepts=40, setup_repeats=1)


@dataclass(frozen=True)
class Case:
    label: str
    scenario: object
    cfg: OrchestratorConfig  # the subject's configuration
    cfg_full: OrchestratorConfig  # full gates, for the scanner
    store: MemoryStore


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    cases: tuple[Case, ...]
    #: (label, scenario, cfg) of each case's unpadded twin (large-ontology only)
    twins: tuple[tuple[str, object, OrchestratorConfig], ...] = ()
    #: Whether a pass's wall time includes the scans (long-horizon times only runs).
    scan_in_wall: bool = True


def pin_hash_seed() -> None:
    """Re-execute the running script with ``PYTHONHASHSEED`` fixed; the
    process is replaced, not forked.  Call only from a ``__main__`` block."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


def build(workload: str, seed: int, sizes: Sizes = DEFAULT) -> Inputs:
    if workload == "family-sweep":
        return _family_sweep(seed, sizes)
    if workload == "long-horizon":
        return _long_horizon(seed, sizes)
    if workload == "large-ontology":
        return _large_ontology(seed, sizes)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def clear_caches() -> None:
    """Drop the lru-cached priming stores so that a set-up rebuilds them."""
    bench._environment_priming_store.cache_clear()
    bench._memory_priming_store.cache_clear()


def _shape(scenario) -> tuple:
    return (scenario.ticks, tuple((e.tick, len(e.patches)) for e in scenario.events))


def _strata(family: str, seed: int, limit: int) -> list[tuple[int, tuple]]:
    """One family seed per scenario shape (tick count and event schedule),
    the first of each shape among the workload seed's draws, so that every
    workload seed runs the same mix of shapes.  Returns (seed, generated)."""
    generator = bench.FAMILY_GENERATORS[family]
    picked: dict[tuple, tuple[int, tuple]] = {}
    for family_seed in range(seed * STRATA_DRAWS, (seed + 1) * STRATA_DRAWS):
        generated = generator(family_seed)
        picked.setdefault(_shape(generated[0]), (family_seed, generated))
    return [picked[shape] for shape in sorted(picked)][:limit]


def _family_sweep(seed: int, sizes: Sizes) -> Inputs:
    cases = []
    for family in bench.FAMILIES:
        for family_seed, (scenario, cfg_full, store) in _strata(family, seed, sizes.strata):
            for subject in sizes.subjects:
                cfg = baselines.configure(cfg_full, subject)
                cases.append(Case(f"{family}/{subject}/{family_seed}", scenario, cfg, cfg_full, store))
    return Inputs("family-sweep", seed, tuple(cases))


def _long_horizon(seed: int, sizes: Sizes) -> Inputs:
    rng = random.Random(f"long-horizon:{seed}")
    scenario, cfg = load_pack("retail")
    data = scenario_to_data(scenario, (pack_dir("retail") / "ontology.txt").read_text(encoding="utf-8"))
    pack_ticks = data["ticks"]
    events = []
    for k in range(sizes.cycles):
        start = 1 + k * CYCLE
        failing = FAILING[k % len(FAILING)]
        dip = round(rng.uniform(0.3, 0.6), 3)
        events += [
            {
                "tick": start,
                "patches": [
                    ["zone+", "aisle2", "env:LoudAisle"],
                    ["health", "speech_unit", "degraded"],
                    ["bandwidth", "aisle2", dip],
                ],
            },
            {"tick": start + 2, "patches": [["fail", failing, "runtime-failure"]]},
            {
                "tick": start + 4,
                "patches": [
                    ["zone-", "aisle2", "env:LoudAisle"],
                    ["health", "speech_unit", "ok"],
                    ["health", failing, "ok"],
                    ["bandwidth", "aisle2", 0.6],
                ],
            },
        ]
    data["events"] = events
    data["ticks"] = 2 + sizes.cycles * CYCLE
    scenario = scenario_from_data(data)
    # The pack's drift allowance is sized for its own short script; keep the
    # same allowance per tick so the ledger does not turn the rest of the
    # horizon into refusals.
    cfg = replace(cfg, drift_bound=cfg.drift_bound * data["ticks"] / pack_ticks)
    label = f"long-horizon/full/{seed}/{data['ticks']}"
    return Inputs("long-horizon", seed, (Case(label, scenario, cfg, cfg, EMPTY_STORE),), scan_in_wall=False)


def padding(count: int) -> str:
    """Ontology lines declaring ``count`` synthetic concepts in refinement
    chains of ``PAD_CHAIN`` links under an unused prefix."""
    lines = [f"prefix {PAD_PREFIX} urn:example:perfbench:padding"]
    for i in range(count):
        category = PAD_CATEGORIES[(i // PAD_CHAIN) % len(PAD_CATEGORIES)]
        lines.append(f"concept {category} {PAD_PREFIX}:C{i}")
        if i % PAD_CHAIN:
            lines.append(f"refines {PAD_PREFIX}:C{i} {PAD_PREFIX}:C{i - 1}")
    return "\n".join(lines) + "\n"


def _large_ontology(seed: int, sizes: Sizes) -> Inputs:
    base = pack_dir("hospital")
    text = (base / "ontology.txt").read_text(encoding="utf-8")
    padded_text = text + padding(sizes.pad_concepts)
    config_data = json.loads((base / "config.json").read_text(encoding="utf-8"))
    cases, twins = [], []
    for family_seed, (scenario, cfg, store) in _strata("substitution", seed, sizes.strata):
        padded = scenario_from_data(scenario_to_data(scenario, padded_text))
        padded_cfg = config_from_data(config_data, padded.schema, padded.assertions)
        label = f"large-ontology/full/{family_seed}/{sizes.pad_concepts}"
        cases.append(Case(label, padded, padded_cfg, padded_cfg, store))
        twins.append((label, scenario, cfg))
    return Inputs("large-ontology", seed, tuple(cases), tuple(twins))
