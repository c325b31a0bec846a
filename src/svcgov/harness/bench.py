"""Seeded benchmark families, the five structural metrics, and the
comparison table.

The four families (substitution, regime-switch, environment-shift,
memory-reuse) perturb the two shipped scenario packs by seeded parameter
jitter rather than generating unconstrained random worlds, so every
instance stays anchored to the case-study entities.  Metrics are
recomputed by an independent scanner that replays each trace from the
scenario script, so a subject cannot grade its own homework:

* identity-preservation rate: deployed transformations scoring at or
  above the identity threshold;
* safe reconfiguration rate: runs whose deployments never violate the
  invariant core;
* bounded degradation: the largest structural drift deployed on a tick
  where the true regime changed (the declared switch allowance covers
  the regime part, so anything structural is excess);
* certificate-reuse gain: decisions where a transported certificate
  replaced a fresh computation, per run;
* structural regret: per tick, the score gap to the best fully
  admissible candidate in hindsight (every grammar candidate scored,
  memory-neutral scoring), summed per run.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, replace as dc_replace
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from ..certify import StepFacts, admissible
from ..errors import ConfigError, GovernanceError, IncomparableReports, ParseError
from ..evaluation import detect_regime, evaluate
from ..fields import Fields, array, decode, integer, keyed, number, read, repeated, text
from ..memory import EMPTY_STORE, MemoryStore
from ..model import type_soundness
from ..orchestrator import DecisionTrace, OrchestratorConfig, replay, run
from ..transform import generate_candidates, transformation_key
from . import baselines
from .packs import pack_data, pack_scenario
from .scenario import Scenario

FAMILIES = ("substitution", "regime-switch", "environment-shift", "memory-reuse")

_EXHAUSTIVE = 10**9


@dataclass(frozen=True)
class MetricsReport:
    family: str
    subject: str
    seeds: tuple[int, ...]
    identity_preservation_rate: float
    safe_reconfiguration_rate: float
    bounded_degradation: float
    certificate_reuse_gain: float
    structural_regret: float
    deployments: int

    def __post_init__(self) -> None:
        """Refuse what ``run_benchmark`` cannot report: a rate outside
        [0, 1], a negative metric or count, or an empty or repeated seed
        list."""
        for rate in (self.identity_preservation_rate, self.safe_reconfiguration_rate):
            if not (0.0 <= rate <= 1.0):
                raise ParseError([f"rates must lie in [0, 1], got {rate}"])
        values = {**self.metric_values(), "deployments": self.deployments}
        if negative := [f"{name} must be nonnegative, got {value}" for name, value in values.items() if value < 0]:
            raise ParseError(negative)
        if not self.seeds:
            raise ParseError(["at least one seed is required"])
        if twice := repeated(self.seeds):
            raise ParseError([f"seeds named more than once: {', '.join(map(str, twice))}"])

    @property
    def runs(self) -> int:
        """One run per seed."""
        return len(self.seeds)

    def metric_values(self) -> dict[str, float]:
        return {
            "identity_preservation_rate": self.identity_preservation_rate,
            "safe_reconfiguration_rate": self.safe_reconfiguration_rate,
            "bounded_degradation": self.bounded_degradation,
            "certificate_reuse_gain": self.certificate_reuse_gain,
            "structural_regret": self.structural_regret,
        }

    def to_data(self) -> dict:
        return {
            "family": self.family,
            "subject": self.subject,
            "seeds": list(self.seeds),
            "metrics": self.metric_values(),
            "deployments": self.deployments,
            "runs": self.runs,
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "MetricsReport":
        r = Fields(data)
        head = r.get("family", text), r.get("subject", text), r.get("seeds", array(integer))
        metrics = r.get("metrics", keyed(number, *METRIC_DIRECTIONS)) or ()
        runs, seeds = r.get("runs", integer), head[2]
        if None not in (runs, seeds) and runs != len(seeds):
            r.refuse(("runs",), f"must equal the number of seeds, {len(seeds)}, got {runs}")
        return r.build(cls, *head, *metrics, r.get("deployments", integer, 0))


#: metric name -> True when higher is better
METRIC_DIRECTIONS = {
    "identity_preservation_rate": True,
    "safe_reconfiguration_rate": True,
    "bounded_degradation": False,
    "certificate_reuse_gain": True,
    "structural_regret": False,
}


# ---------------------------------------------------------------------------
# The independent trace scanner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunScan:
    deployments: int
    identity_ok: int
    core_violations: int
    max_switch_structural: float
    transported: int
    regret: float


class TickScore(NamedTuple):
    """The oracle's findings at one tick, as plain numbers: the regret (the
    best score of an admissible candidate scoring above the score
    achieved, minus that score; 0.0 when there is none) and, when the
    trace deployed a candidate, that candidate's identity total, core pass
    and structural charge (``deployed``; None otherwise)."""

    regret: float
    deployed: tuple[float, bool, float] | None


class _Law(tuple):
    """The ``PARTS`` of a config, by value, hashed once: a scan keys every
    tick by them."""

    #: What the regret oracle reads of a config, ``StepFacts.screening`` and
    #: ``admissible`` included, besides the schema, which keeps the scores,
    #: and the gates, which ``scan_run`` requires to be armed.
    PARTS = ("grammar", "regimes", "core", "prior", "capacity_budget", "switch_model", "drift_bound", "fallback")

    def __new__(cls, cfg: OrchestratorConfig) -> "_Law":
        law = super().__new__(cls, [getattr(cfg, name) for name in cls.PARTS])
        law.hashed = tuple.__hash__(law)
        return law

    def __hash__(self) -> int:
        return self.hashed


def scan_run(scenario: Scenario, cfg: OrchestratorConfig, traces: Sequence[DecisionTrace]) -> RunScan:
    """Replay a run from the scenario script and recompute every metric
    ingredient against the full governance law: ``cfg`` must arm every
    gate, and a config that disarms one is refused.  The deployed
    candidate's metrics are read from the oracle's facts about it, never
    from the run's own verdicts.  Each tick's ``TickScore`` is kept in
    ``schema.memo`` under exactly what the oracle reads: the law
    (``_Law.PARTS``, by value), the tick's registry, the digests of its
    lift and of ``h_before``, the true regime and the one before it, and
    the deployed transformation's key.  It does not read the subject, so
    every scan on the schema under an equal law shares the scores,
    whichever subject wrote the trace; the digests keep an entry from
    holding on to the lifts of scenarios long gone.  The replay lifts
    through ``lift_table(scenario, cfg)``."""
    if disarmed := [gate for gate, armed in cfg.flags.to_data().items() if not armed]:
        raise ConfigError(f"the scanner judges under full gates; disarmed: {', '.join(disarmed)}")
    law = _Law(cfg)
    true_regime = cfg.default_regime()
    deployments = identity_ok = violations = transported = 0
    max_switch_structural = 0.0
    regret = 0.0
    exhaustive = dc_replace(cfg.grammar, max_candidates=_EXHAUSTIVE)
    for trace, _, z, registry, h_before, _ in replay(scenario, cfg, traces):
        e_true = detect_regime(cfg.regimes, z)
        switched = e_true.label != true_regime.label
        from_true = true_regime
        true_regime = e_true

        deployed_key = transformation_key(trace.selected) if trace.selected is not None else None
        key = ("oracle", law, registry, z.digest(), h_before.digest(), e_true.label, from_true.label, deployed_key)
        score = cfg.schema.remembered(key, _oracle, cfg, exhaustive, registry, z, h_before, e_true, from_true, trace)
        if score.deployed is not None:
            identity, core_passed, charge = score.deployed
            deployments += 1
            if cfg.core.identity.admits(identity):
                identity_ok += 1
            if not core_passed:
                violations += 1
            if switched:
                max_switch_structural = max(max_switch_structural, charge)
        transported += trace.transported_used
        regret += score.regret
    return RunScan(
        deployments=deployments,
        identity_ok=identity_ok,
        core_violations=violations,
        max_switch_structural=max_switch_structural,
        transported=transported,
        regret=regret,
    )


def _oracle(cfg, grammar, registry, z, h_before, e_true, from_true, trace) -> TickScore:
    """Find in hindsight how far the best score among the grammar
    candidates, plus the fallback, that pass with full gates lies above
    the score achieved, all scored memory-neutrally (an empty store, so a
    reuse term of 0).  The score achieved is the deployed candidate's,
    read from its facts alone, in the list or outside it, or, when the
    trace deployed nothing, that of keeping ``h_before``.  A tick adds no
    regret for a candidate scoring at or below it, so only the candidates
    scoring strictly above it are kept, and ``admissible`` screens them in
    descending score order, ties in list order, until one passes: no
    candidate below it can raise the regret.  ``registry`` is the
    component registry of the tick's raw state.  Of ``cfg`` it reads the
    schema and ``_Law.PARTS``, and of ``trace`` only ``selected``."""
    step = StepFacts.screening(h_before, z, e_true, EMPTY_STORE, cfg, from_true)
    deployed = deployed_key = None
    if trace.selected is not None:
        deployed_key = transformation_key(trace.selected)
        deployed = step.candidate(trace.selected)
        achieved = deployed.score(0.0).total
    else:
        achieved = evaluate(e_true, h_before, z, 0.0, type_soundness(h_before, cfg.schema)).total
    candidates = [(transformation_key(tau), tau) for tau in generate_candidates(h_before, z, grammar, registry)]
    fallback_key = transformation_key(cfg.fallback)
    if fallback_key not in {key for key, _ in candidates}:
        candidates.append((fallback_key, cfg.fallback))
    above = []
    for key, tau in candidates:
        if key == deployed_key:  # it scores exactly the score achieved
            continue
        facts = step.candidate(tau)
        score = facts.score(0.0).total
        if score > achieved:
            above.append((score, tau, facts))
    regret = 0.0
    # a stable sort keeps list order among equal scores
    for score, tau, facts in sorted(above, key=lambda kept: -kept[0]):
        if admissible(tau, h_before, z, e_true, EMPTY_STORE, cfg, facts=facts).passed:
            regret = score - achieved
            break
    if deployed is None:
        return TickScore(regret, None)
    return TickScore(regret, (deployed.identity.total, deployed.core_report.passed, deployed.charge))


# ---------------------------------------------------------------------------
# Seeded families
# ---------------------------------------------------------------------------


def _gen_substitution(seed: int) -> tuple[Scenario, OrchestratorConfig, MemoryStore]:
    rng = random.Random(("substitution", seed).__repr__())
    data = pack_data("hospital")
    t0 = rng.choice((1, 2, 3))
    battery = round(rng.uniform(0.06, 0.14), 3)
    data["events"] = [
        {
            "tick": t0,
            "patches": [
                ["battery", "R1", battery],
                ["health", "r1_nav", "degraded"],
                ["health", "r1_handoff", "degraded"],
            ],
        },
        {"tick": t0 + 1, "patches": [["availability", "R1", False]]},
    ]
    data["ticks"] = t0 + 3
    data["initial_state"]["request"]["deadline"] = rng.choice((11, 12, 13))
    return (*pack_scenario("hospital", data), EMPTY_STORE)


def _gen_regime_switch(seed: int) -> tuple[Scenario, OrchestratorConfig, MemoryStore]:
    rng = random.Random(("regime-switch", seed).__repr__())
    data = pack_data("retail")
    t0 = rng.choice((2, 3, 4))
    dip = round(rng.uniform(0.3, 0.6), 3)
    data["events"] = [
        {
            "tick": t0,
            "patches": [
                ["zone+", "aisle2", "env:LoudAisle"],
                ["health", "speech_unit", "degraded"],
                ["bandwidth", "aisle2", dip],
            ],
        }
    ]
    data["ticks"] = t0 + 3
    data["initial_state"]["request"]["deadline"] = rng.choice((13, 15, 17))
    return (*pack_scenario("retail", data), EMPTY_STORE)


@lru_cache(maxsize=None)
def _environment_priming_store() -> MemoryStore:
    """History for the environment-shift family: a transfer to the Mk2
    navigation unit that later failed, recorded in the unshifted ward
    environment class."""
    data = pack_data("hospital")
    data["events"] = [
        {"tick": 2, "patches": [["battery", "R1", 0.12], ["health", "r1_nav", "degraded"]]},
        {"tick": 3, "patches": [["fail", "r2_nav", "runtime-failure"]]},
    ]
    data["ticks"] = 4
    return run(*pack_scenario("hospital", data)).store


def _gen_environment_shift(seed: int) -> tuple[Scenario, OrchestratorConfig, MemoryStore]:
    rng = random.Random(("environment-shift", seed).__repr__())
    data = pack_data("hospital")
    shifted = rng.random() < 0.5
    events = []
    if shifted:
        events.append({"tick": 1, "patches": [["zone+", "ward", "env:RestrictedArea"]]})
    events.append(
        {
            "tick": 2,
            "patches": [
                ["battery", "R1", round(rng.uniform(0.06, 0.14), 3)],
                ["health", "r1_nav", "degraded"],
                ["health", "r1_handoff", "degraded"],
            ],
        }
    )
    events.append({"tick": 3, "patches": [["availability", "R1", False]]})
    data["events"] = events
    data["ticks"] = 5
    return (*pack_scenario("hospital", data), _environment_priming_store())


@lru_cache(maxsize=None)
def _memory_priming_store() -> MemoryStore:
    """History for the memory-reuse family: the speech interface failed at
    the noisy tick; the platform recovered by substituting the touch unit,
    leaving certificates behind for transport."""
    data = pack_data("retail")
    data["events"] = [
        {
            "tick": 3,
            "patches": [["zone+", "aisle2", "env:LoudAisle"], ["fail", "speech_unit", "runtime-failure"]],
        }
    ]
    data["ticks"] = 5
    return run(*pack_scenario("retail", data)).store


def _gen_memory_reuse(seed: int) -> tuple[Scenario, OrchestratorConfig, MemoryStore]:
    rng = random.Random(("memory-reuse", seed).__repr__())
    data = pack_data("retail")
    data["events"] = [
        {
            "tick": 3,
            "patches": [["zone+", "aisle2", "env:LoudAisle"], ["health", "speech_unit", "failed"]],
        }
    ]
    data["ticks"] = 6
    data["initial_state"]["request"]["deadline"] = rng.choice((12, 15, 18))
    data["initial_state"]["request"]["params"]["priority"] = rng.choice((1, 2))
    data["assertions"]["params"] = [["req1", "priority", data["initial_state"]["request"]["params"]["priority"]]]
    return (*pack_scenario("retail", data), _memory_priming_store())


FAMILY_GENERATORS = {
    "substitution": _gen_substitution,
    "regime-switch": _gen_regime_switch,
    "environment-shift": _gen_environment_shift,
    "memory-reuse": _gen_memory_reuse,
}


# ---------------------------------------------------------------------------
# Benchmark driver
# ---------------------------------------------------------------------------


def run_benchmark(family: str, subject: str, seeds: Sequence[int]) -> MetricsReport:
    """Run one subject over seeded scenario variations of a family and
    aggregate the structural metrics.  Deterministic per seed; a run that
    errors out counts as a safety failure."""
    if family not in FAMILY_GENERATORS:
        raise IncomparableReports(f"unknown benchmark family {family!r}")
    if not seeds:
        raise IncomparableReports("at least one seed is required")
    if twice := repeated(seeds):
        raise IncomparableReports(f"seeds named more than once: {', '.join(map(str, twice))}")
    generator = FAMILY_GENERATORS[family]

    deployments = identity_ok = violations_runs = 0
    transported_total = 0
    regret_total = 0.0
    degradation = 0.0

    for seed in seeds:
        scenario, cfg_full, store0 = generator(seed)
        cfg = baselines.configure(cfg_full, subject)
        try:
            result = run(scenario, cfg, store0)
            scan = scan_run(scenario, cfg_full, result.traces)
        except GovernanceError:
            violations_runs += 1
            continue
        deployments += scan.deployments
        identity_ok += scan.identity_ok
        if scan.core_violations:
            violations_runs += 1
        transported_total += scan.transported
        regret_total += scan.regret
        degradation = max(degradation, scan.max_switch_structural)

    return MetricsReport(
        family=family,
        subject=subject,
        seeds=tuple(seeds),
        identity_preservation_rate=(identity_ok / deployments) if deployments else 1.0,
        safe_reconfiguration_rate=1.0 - violations_runs / len(seeds),
        bounded_degradation=degradation,
        certificate_reuse_gain=transported_total / len(seeds),
        structural_regret=regret_total / len(seeds),
        deployments=deployments,
    )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    csv_text: str
    verdicts: tuple[tuple[str, str], ...]  # (metric, "better"/"equal"/"worse")
    reference: str  # the subject that each verdict rates

    def render(self) -> str:
        lines = [self.csv_text.rstrip("\n")]
        name = "full stack" if self.reference == baselines.FULL else self.reference
        for metric, verdict in self.verdicts:
            lines.append(f"verdict {metric}: {name} {verdict}")
        return "\n".join(lines) + "\n"


def compare(reports: Sequence[tuple[str, MetricsReport]]) -> Comparison:
    """Side-by-side table of subjects on one family, plus one verdict line
    per metric comparing the reference subject (the full stack when it is
    given, else the first) against the best of the others.  A subject given
    twice would be rated against itself, so it is refused."""
    if len(reports) < 2:
        raise IncomparableReports("need at least two reports to compare")
    if twice := repeated([subject for subject, _ in reports]):
        raise IncomparableReports(f"subject given more than once: {', '.join(twice)}; refusing to compare")
    families = {r.family for _, r in reports}
    seed_sets = {r.seeds for _, r in reports}
    if len(families) != 1 or len(seed_sets) != 1:
        raise IncomparableReports("reports differ in family or seeds; refusing to compare")

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    metrics = list(METRIC_DIRECTIONS)
    writer.writerow(["subject"] + metrics)
    for subject, report in reports:
        values = report.metric_values()
        writer.writerow([subject] + [f"{values[m]:.6f}" for m in metrics])

    ref_index = next((i for i, (s, _) in enumerate(reports) if s == baselines.FULL), 0)
    reference = reports[ref_index][1]
    others = [r for i, (_, r) in enumerate(reports) if i != ref_index]
    verdicts = []
    for metric, higher_better in METRIC_DIRECTIONS.items():
        ref = reference.metric_values()[metric]
        field = [r.metric_values()[metric] for r in others]
        best = max(field) if higher_better else min(field)
        if abs(ref - best) <= 1e-12:
            verdicts.append((metric, "equal"))
        elif (ref > best) == higher_better:
            verdicts.append((metric, "better"))
        else:
            verdicts.append((metric, "worse"))
    return Comparison(csv_text=out.getvalue(), verdicts=tuple(verdicts), reference=reports[ref_index][0])


def report_to_json(report: MetricsReport) -> str:
    return json.dumps(report.to_data(), indent=2, sort_keys=True)


def report_from_json(document: str) -> MetricsReport:
    return read(ParseError, "report", MetricsReport.from_data, decode(ParseError, "report JSON", document))
