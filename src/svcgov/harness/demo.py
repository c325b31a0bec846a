"""The strict-extension witness.

Two component substitutions on the hospital pipeline, both ontology
conformant (consistent assertion base, type-sound transformed graph), of
which exactly one survives full admissibility screening: the budget unit
silently drops the identity-checking output and fails the invariance
obligation.  The ontology-only stack accepts both, which is the whole
point: the difference is not decidable at the conformance level.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..certify import admissible
from ..evaluation import detect_regime
from ..memory import EMPTY_STORE
from ..model import type_soundness
from ..ontology import check_consistency
from ..orchestrator import lift_table
from ..transform import Substitute, apply
from . import baselines
from .packs import pack_data, pack_scenario


@dataclass(frozen=True)
class WitnessResult:
    name: str
    consistent: bool
    sound: bool
    admissible_full: bool
    admissible_ontology_only: bool
    failed_obligations: tuple[str, ...]


@dataclass(frozen=True)
class StrictExtensionReport:
    witnesses: tuple[WitnessResult, ...]

    @property
    def ontology_accepts(self) -> int:
        return sum(1 for w in self.witnesses if w.consistent and w.sound and w.admissible_ontology_only)

    @property
    def fully_admissible(self) -> int:
        return sum(1 for w in self.witnesses if w.admissible_full)

    def render(self) -> str:
        lines = []
        for w in self.witnesses:
            failed = ",".join(w.failed_obligations) if w.failed_obligations else "-"
            lines.append(
                f"substitution {w.name}: consistency={'pass' if w.consistent else 'FAIL'} "
                f"soundness={'pass' if w.sound else 'FAIL'} "
                f"admissible={'pass' if w.admissible_full else 'FAIL'} "
                f"ontology-only={'accepts' if w.admissible_ontology_only else 'rejects'} "
                f"violated={failed}"
            )
        both = "BOTH" if self.ontology_accepts == 2 else str(self.ontology_accepts)
        one = "ONE" if self.fully_admissible == 1 else str(self.fully_admissible)
        lines.append(f"ontology-conformant: {both}")
        lines.append(f"fully-admissible: {one}")
        return "\n".join(lines) + "\n"


def strict_extension() -> StrictExtensionReport:
    data = pack_data("hospital")
    data["events"] = [
        {"tick": 2, "patches": [["battery", "R1", 0.12], ["health", "r1_handoff", "degraded"]]}
    ]
    data["ticks"] = 3
    scenario, cfg = pack_scenario("hospital", data)

    z, _ = lift_table(scenario, cfg).lift(scenario.at(2)[0])
    e = detect_regime(cfg.regimes, z)
    h = scenario.initial_hypothesis

    registry = {c.component_id: c for c in scenario.registry}
    candidates = (
        ("handoff-standard", Substitute("r_handoff", "r1_handoff", registry["r2_handoff"])),
        ("handoff-budget", Substitute("r_handoff", "r1_handoff", registry["cheap_handoff"])),
    )
    onto_cfg = baselines.configure(cfg, "ontology-only")

    consistency = check_consistency(cfg.schema, cfg.assertions).consistent
    witnesses = []
    for name, tau in candidates:
        h2 = apply(tau, h)
        sound = type_soundness(h2, cfg.schema).sound
        full = admissible(tau, h, z, e, EMPTY_STORE, cfg)
        onto = admissible(tau, h, z, e, EMPTY_STORE, onto_cfg)
        witnesses.append(
            WitnessResult(
                name=name,
                consistent=consistency,
                sound=sound,
                admissible_full=full.passed,
                admissible_ontology_only=onto.passed,
                failed_obligations=full.violation_codes(),
            )
        )
    return StrictExtensionReport(tuple(witnesses))
