"""The decision loop: raw state in, certified deployment out.

Each step executes five auditable stages: semantic lift, candidate
generation, admissibility screening, memory-aware ranking, and certified
deployment.  A step that generates no candidates is a logged no-op; a step
whose candidates all fail screening falls back to the configured
supervision attachment.  Every decision is recorded in a trace complete
enough that an independent scanner can replay and re-check it.

One orchestrator instance is strictly sequential: it owns the drift ledger
and the memory store between steps.  Runs and scans of one scenario share
its lift table (``lift_table``), as instances on one schema share its
``memo``; both are dicts without a lock that only ever gain entries, so
concurrent instances belong in separate processes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, NamedTuple, Sequence

from .canon import canonical_dumps
from .certificates import Certificate, environment_digest
from .certify import AdmissibilityVerdict, DriftLedger, RegimeSwitchModel, StepFacts, admissible, transition
from .errors import ConfigError, TypingError
from .evaluation import (
    InvariantCore,
    Regime,
    ScoreBreakdown,
    StructuralPrior,
    detect_regime,
)
from .fields import Fields, boolean, repeated
from .memory import (
    EMPTY_STORE,
    FailureSignature,
    MemoryRecord,
    MemoryStore,
    motif_from_hypothesis,
    record,
    reuse_score,
)
from .model import (
    Component,
    Hypothesis,
    RawPlatformState,
    SemanticState,
    _check_concept,
    _check_contract,
    phase,
    semantic_lift,
    type_soundness,
)
from .ontology import AssertionBase, Category, ConceptId, OntologySchema
from .transform import (
    AddSubservice,
    Transformation,
    TransformationGrammar,
    UpdateConstraint,
    apply,
    generate_candidates,
    transformation_to_data,
    variant_name,
)


@dataclass(frozen=True)
class GateFlags:
    """Which certifier gates are armed.  Disarmed obligations still compute
    and record evidence; they just stop blocking, which is how the weaker
    baseline stacks are produced without forking any logic."""

    closure: bool = True
    stability: bool = True
    capacity: bool = True
    invariance: bool = True
    substitution: bool = True
    memory: bool = True
    regime_family: bool = True

    def to_data(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_data(cls, data: Mapping) -> "GateFlags":
        r = Fields(data)
        return r.build(cls, **{name: r.get(name, boolean, on) for name, on in cls().to_data().items()})


@dataclass(frozen=True)
class OrchestratorConfig:
    schema: OntologySchema
    assertions: AssertionBase
    grammar: TransformationGrammar
    regimes: tuple[Regime, ...]
    core: InvariantCore
    prior: StructuralPrior
    capacity_budget: float
    switch_model: RegimeSwitchModel
    drift_bound: float
    reuse_bonus: float = 1.0
    reuse_penalty: float = 2.0
    fallback: AddSubservice | None = None
    flags: GateFlags = GateFlags()

    def __post_init__(self) -> None:
        defaults = [r for r in self.regimes if r.is_default()]
        if len(defaults) != 1:
            raise ConfigError(f"exactly one default regime required, found {len(defaults)}")
        if self.regimes[-1] is not defaults[0]:
            raise ConfigError("the default regime must be declared last")
        self._check_regime_labels()
        if not self.capacity_budget > 0:
            raise ConfigError("capacity budget must be positive")
        if not self.drift_bound >= 0:
            raise ConfigError("global drift bound must be nonnegative")
        for name in ("reuse_bonus", "reuse_penalty"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.fallback is None:
            raise ConfigError("a supervision fallback subservice must be configured")
        if not self.grammar.rule("add_subservice").enabled:
            raise ConfigError("the add_subservice variant must be enabled for the fallback")
        if not self.grammar.allows(self.fallback):
            raise ConfigError("the fallback attachment must be declared in the grammar")
        if not self.fallback.part.roles:
            raise ConfigError("the fallback subservice must contribute at least one role")
        self._check_concepts()

    def _check_regime_labels(self) -> None:
        """Regime labels are unique, and the switch model names only declared ones."""
        labels, model = [regime.label for regime in self.regimes], self.switch_model
        problems = [f"duplicate regime label {label!r}" for label in repeated(labels)]
        for part, entries in (("costs", model.costs), ("residuals", model.residuals), ("recipes", model.recipes)):
            for i, (a, b, _) in enumerate(entries):
                undeclared = [label for label in dict.fromkeys((a, b)) if label not in labels]
                problems += [f"switch_model.{part}[{i}] names undeclared regime {label!r}" for label in undeclared]
        if problems:
            raise ConfigError("; ".join(problems))

    def _check_concepts(self) -> None:
        """The concepts that the safety predicates, the addable prototypes
        and the fallback name are declared, each of its category: one that
        is not would make a predicate never hold once its flag is raised,
        or a prototype never type-sound."""
        found: list[tuple[str, str]] = []
        for p in self.core.predicates:
            if p.kind == "flag-requires-function":
                function = ConceptId.parse(dict(p.params)["function"])
                _check_concept(found, self.schema, function, Category.FUNCTION, f"safety predicate {p.name!r} function")
        prototypes = [(f"grammar.addable[{i}]", add) for i, add in enumerate(self.grammar.addable)]
        for where, add in (*prototypes, ("fallback", self.fallback)):
            soundness = type_soundness(add.part, self.schema)
            misnamed = [v for v in soundness.violations if v[0] in ("unknown-concept", "category-mismatch")]
            for e in add.attach:
                _check_contract(misnamed, self.schema, e.contract, f"attachment {e.from_role}->{e.to_role}")
            found += [(code, f"{where}: {message}") for code, message in misnamed]
        if found:
            raise ConfigError("; ".join(message for _, message in found))

    def default_regime(self) -> Regime:
        return self.regimes[-1]

    def regime_family(self) -> tuple[Regime, ...]:
        if self.flags.regime_family:
            return self.regimes
        return (self.default_regime(),)

    def ablated(self, flags: GateFlags) -> "OrchestratorConfig":
        return replace(self, flags=flags)


def registry_from_state(
    x: RawPlatformState, k: AssertionBase, schema: OntologySchema
) -> tuple[Component, ...]:
    """Available components: platform components in ok health, with their
    provided functions read from the assertion base."""
    provides: dict[str, set] = {}
    for _, subject, obj in k.facts_named("providesFunction"):
        concept = k.individuals.get(obj)
        if concept is not None and schema.declares(concept):
            provides.setdefault(subject, set()).add(concept)
    out = []
    for comp in x.components:
        if comp.health != "ok":
            continue
        out.append(
            Component(comp.component_id, comp.concept, frozenset(provides.get(comp.component_id, set())))
        )
    return tuple(sorted(out, key=lambda c: c.component_id))


class LiftTable:
    """The semantic lift and component registry of each distinct raw state
    on one schema and assertion base, each computed once per key:
    ``lift(x)`` keys a state by its fields with the time read only as
    ``phase(time)``, all that the lift reads of it, keeps the registry
    itself by the component states, all that it reads, and the lift's
    request part by the request class, all that it reads of the state.  A
    state that raises ``TypingError`` is not kept, so it raises again where
    it recurs.  Equal ``SHARED_PARTS`` of the table's lifts are one object,
    since the states of one scenario differ in few of them."""

    #: The lift's parts that recur across states and hold no numbers, so
    #: that any two equal values are interchangeable.
    SHARED_PARTS = (
        "available_agents", "component_functions", "environment_descriptors", "interaction_state", "safety_flags",
    )

    def __init__(self, schema: OntologySchema, assertions: AssertionBase):
        self.schema, self.assertions = schema, assertions
        self._lifts: dict[tuple, tuple[SemanticState, tuple[Component, ...]]] = {}
        self._registries: dict[tuple, tuple[Component, ...]] = {}
        self._requests: dict = {}
        self._parts: dict = {}

    def lift(self, x: RawPlatformState) -> tuple[SemanticState, tuple[Component, ...]]:
        key = tuple({**vars(x), "time": phase(x.time)}.values())
        lifted = self._lifts.get(key)
        if lifted is None:
            z = semantic_lift(x, self.schema, self.assertions, self._requests)
            parts = self._parts
            z = replace(z, **{name: parts.setdefault(getattr(z, name), getattr(z, name)) for name in self.SHARED_PARTS})
            registry = self._registries.get(x.components)
            if registry is None:
                registry = self._registries[x.components] = registry_from_state(x, self.assertions, self.schema)
            lifted = self._lifts[key] = z, registry
        return lifted


def lift_table(scenario, cfg: OrchestratorConfig) -> LiftTable:
    """The lift table that a run or a scan of ``scenario`` on ``cfg`` reads:
    the scenario's own, worked out when it was loaded, when the config's
    schema and assertion base equal the table's, so that every run and scan
    of the scenario shares it; otherwise a fresh table on the config's."""
    table = scenario.lifts
    if table.schema == cfg.schema and table.assertions == cfg.assertions:
        return table
    return LiftTable(cfg.schema, cfg.assertions)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


class CandidateTrace(NamedTuple):
    transformation: Transformation
    verdict: AdmissibilityVerdict
    breakdown: ScoreBreakdown
    reuse: float
    complexity: float

    def to_data(self) -> dict:
        return {
            "transformation": transformation_to_data(self.transformation),
            "verdict": self.verdict.to_data(),
            "score": self.breakdown.to_data(),
            "reuse": self.reuse,
            "complexity": self.complexity,
        }


@dataclass(frozen=True)
class DecisionTrace:
    tick: int
    state_digest: str
    regime_label: str
    from_regime: str
    regime_rewrites: tuple[tuple[str, float], ...]
    candidates: tuple[CandidateTrace, ...]
    kind: str  # selected | fallback | noop | error
    selected_index: int | None
    selected: Transformation | None
    deployed_digest: str
    certificates: tuple[Certificate, ...]
    ledger_total: float
    ledger_entries: int
    transported_used: int
    error: str = ""

    def to_data(self) -> dict:
        return {
            "tick": self.tick,
            "state": self.state_digest,
            "regime": self.regime_label,
            "from_regime": self.from_regime,
            "regime_rewrites": [[n, b] for n, b in self.regime_rewrites],
            "candidates": [c.to_data() for c in self.candidates],
            "kind": self.kind,
            "selected_index": self.selected_index,
            "selected": transformation_to_data(self.selected) if self.selected else None,
            "deployed": self.deployed_digest,
            "certificates": [c.to_data() for c in self.certificates],
            "ledger_total": self.ledger_total,
            "ledger_entries": self.ledger_entries,
            "transported": self.transported_used,
            "error": self.error,
        }


@dataclass(frozen=True)
class StepResult:
    hypothesis: Hypothesis
    regime: Regime
    store: MemoryStore
    trace: DecisionTrace


class Orchestrator:
    """Owns the drift ledger across steps, and reads each state's lift and
    registry from ``lifts``: the table of the scenario it steps (see
    ``lift_table``), or by default a fresh one on the config's schema and
    assertion base."""

    def __init__(self, cfg: OrchestratorConfig, lifts: LiftTable | None = None):
        self.cfg = cfg
        self.ledger = DriftLedger(bound=cfg.drift_bound)
        self.lifts = lifts if lifts is not None else LiftTable(cfg.schema, cfg.assertions)

    def _screen(self, tau: Transformation, step: StepFacts, tick: int) -> tuple[CandidateTrace, Hypothesis]:
        """One candidate screened in ``step`` (built by ``StepFacts.screening``)
        against the run's ledger: its trace, which holds the verdict, the
        reuse term read from the step's store (the empty store, so 0, with
        the memory gate off) and the candidate's score, and the
        configuration it reaches (``h`` itself when ``tau`` is not
        applicable)."""
        cfg, e = self.cfg, step.e
        facts = step.candidate(tau)
        verdict = admissible(tau, step.h, step.z, e, step.store, cfg, ledger=self.ledger, tick=tick, facts=facts)
        environment, bonus, penalty = step.context.environment_digest, cfg.reuse_bonus, cfg.reuse_penalty
        reuse = reuse_score(step.store, facts.h2, e.label, environment, bonus, penalty, facts.failures)
        return CandidateTrace(tau, verdict, facts.score(reuse), reuse, facts.complexity), facts.h2

    def step(
        self, x: RawPlatformState, h: Hypothesis, e: Regime, store: MemoryStore
    ) -> StepResult:
        cfg = self.cfg
        tick = x.time
        try:
            z, registry = self.lifts.lift(x)
        except TypingError as exc:
            trace = DecisionTrace(
                tick=tick,
                state_digest="",
                regime_label=e.label,
                from_regime=e.label,
                regime_rewrites=(),
                candidates=(),
                kind="error",
                selected_index=None,
                selected=None,
                deployed_digest=h.digest(),
                certificates=(),
                ledger_total=self.ledger.total,
                ledger_entries=len(self.ledger.entries),
                transported_used=0,
                error=f"rejected: {exc}",
            )
            return StepResult(h, e, store, trace)

        e2 = detect_regime(cfg.regime_family(), z)

        rewrites: tuple[tuple[str, float], ...] = ()
        if e2.label != e.label:
            rewrites = cfg.switch_model.recipe(e.label, e2.label)
            for name, bound in rewrites:
                h = transition(h, UpdateConstraint(name, bound, rationale="regime-entry"), cfg.schema).h2

        candidates = generate_candidates(h, z, cfg.grammar, registry)
        # a step with nothing to screen deploys nothing, and needs no facts
        step = StepFacts.screening(h, z, e2, store, cfg, e) if candidates else None

        screened: list[CandidateTrace] = []
        outcomes: list[Hypothesis] = []
        for tau in candidates:
            trace, candidate_h = self._screen(tau, step, tick)
            screened.append(trace)
            outcomes.append(candidate_h)

        survivors = [i for i, c in enumerate(screened) if c.verdict.passed]
        kind = "noop"
        selected_index: int | None = None
        error = ""
        if survivors:
            kind = "selected"
            selected_index = min(survivors, key=lambda i: (-screened[i].breakdown.total, screened[i].complexity, i))
        elif candidates:
            trace_fb, candidate_h = self._screen(cfg.fallback, step, tick)
            screened.append(trace_fb)
            outcomes.append(candidate_h)
            if trace_fb.verdict.passed:
                kind = "fallback"
                selected_index = len(screened) - 1
            else:
                error = "fallback inadmissible; configuration violates its own guarantee"

        selected: Transformation | None = None
        deployed = h
        certificates: tuple[Certificate, ...] = ()
        if selected_index is not None:
            choice = screened[selected_index]
            selected = choice.transformation
            deployed = outcomes[selected_index]
            self.ledger = choice.verdict.updated_ledger
            certificates = choice.verdict.certificates

        if selected is not None and cfg.flags.memory:
            composite = Certificate(
                kind="composite",
                subject_digest=deployed.digest(),
                context=step.context,
                evidence=tuple(
                    sorted(
                        {
                            "obligations": {code: result.certified for code, result in choice.verdict.obligations},
                            "selected": kind,
                        }.items()
                    )
                ),
                issued_at=tick,
            )
            rec = MemoryRecord(
                regime_label=e2.label,
                hypothesis_digest=deployed.digest(),
                certificate=composite,
                outcome="success",
                failure_signature=None,
                reuse_tag=kind,
            )
            store = record(store, rec, graph=deployed, certificates=certificates)

        trace = DecisionTrace(
            tick=tick,
            state_digest=z.digest(),
            regime_label=e2.label,
            from_regime=e.label,
            regime_rewrites=rewrites,
            candidates=tuple(screened),
            kind=kind,
            selected_index=selected_index,
            selected=selected,
            deployed_digest=deployed.digest(),
            certificates=certificates,
            ledger_total=self.ledger.total,
            ledger_entries=len(self.ledger.entries),
            transported_used=sum(c.verdict.transported for c in screened),
            error=error,
        )
        return StepResult(deployed, e2, store, trace)


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    traces: tuple[DecisionTrace, ...]
    store: MemoryStore
    final_hypothesis: Hypothesis

    def document(self, name: str, cfg: OrchestratorConfig) -> str:
        """One canonical text document per run."""
        return canonical_dumps(
            {
                "run": name,
                "flags": cfg.flags.to_data(),
                "traces": [t.to_data() for t in self.traces],
            }
        )

    def summary_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["tick", "regime", "candidates", "survivors", "kind", "selected", "score", "ledger_total"]
        )
        for t in self.traces:
            survivors = sum(1 for c in t.candidates if c.verdict.passed)
            score = ""
            name = ""
            if t.selected_index is not None:
                score = f"{t.candidates[t.selected_index].breakdown.total:.6f}"
                name = variant_name(t.selected) if t.selected else ""
            writer.writerow(
                [t.tick, t.regime_label, len(t.candidates), survivors, t.kind, name, score, f"{t.ledger_total:.6f}"]
            )
        return out.getvalue()


def run(scenario, cfg: OrchestratorConfig, initial_store: MemoryStore | None = None) -> RunResult:
    """Deterministically step through a scripted scenario: each tick's raw
    state and scripted failures are the ones the scenario worked out at
    load, and each state's lift is read from ``lift_table(scenario, cfg)``."""
    orch = Orchestrator(cfg, lift_table(scenario, cfg))
    store = initial_store if initial_store is not None else EMPTY_STORE
    h = scenario.initial_hypothesis
    e = cfg.default_regime()
    traces: list[DecisionTrace] = []

    for tick in range(scenario.ticks):
        x, failures = scenario.at(tick)
        if failures and cfg.flags.memory:
            store = _record_failures(store, failures, h, x, e, orch)
        result = orch.step(x, h, e, store)
        h, e, store = result.hypothesis, result.regime, result.store
        traces.append(result.trace)
    return RunResult(tuple(traces), store, h)


def _record_failures(
    store: MemoryStore,
    failures: Sequence[tuple[str, str]],
    h: Hypothesis,
    x: RawPlatformState,
    e: Regime,
    orch: Orchestrator,
) -> MemoryStore:
    """Turn scripted runtime failures into failure records implicating the
    roles bound to the failing component; ``x`` is lifted through the
    lift table of ``orch``, the orchestrator that steps it next, and its
    environment digest is read on that orchestrator's config's schema."""
    try:
        z, _ = orch.lifts.lift(x)
    except TypingError:
        return store
    for component_id, code in failures:
        sites = h.sites_of(component_id)
        if not sites:
            continue
        signature = FailureSignature(
            regime_label=e.label,
            environment_digest=environment_digest(z, orch.cfg.schema),
            motif=motif_from_hypothesis(h, sites),
            obligation_code=code,
        )
        rec = MemoryRecord(
            regime_label=e.label,
            hypothesis_digest=h.digest(),
            certificate=None,
            outcome="failed",
            failure_signature=signature,
            reuse_tag="runtime",
        )
        store = record(store, rec, graph=h)
    return store


def replay(
    scenario, cfg: OrchestratorConfig, traces: Sequence[DecisionTrace]
) -> Iterator[
    tuple[DecisionTrace, RawPlatformState, SemanticState, tuple[Component, ...], Hypothesis, Hypothesis]
]:
    """Independently walk a run from the scenario script and the trace's
    recorded transformations.  Yields, per trace, the raw state ``x`` of
    its tick (as the scenario worked it out at load), its semantic lift
    ``z`` and component registry, the hypothesis after the trace's regime
    rewrites (``h_before``) and the deployed one (``h_after``); raises if a
    trace does not replay to its deployed digest.  States are lifted
    through ``lift_table(scenario, cfg)``: the scenario's own table lifts
    nothing, a fresh one each distinct raw state once.  The rewrites and
    the selected transformation are read through ``transition`` on the
    config's schema, so a transition that a run or scan on the schema has
    met is not applied again; each is a pure function of the graph and the
    transformation, and the deployed digest is checked against the trace
    all the same."""
    lifts, h = lift_table(scenario, cfg), scenario.initial_hypothesis
    for trace in traces:
        x, _ = scenario.at(trace.tick)
        z, registry = lifts.lift(x)
        for name, bound in trace.regime_rewrites:
            h = transition(h, UpdateConstraint(name, bound), cfg.schema).h2
        h_before = h
        if trace.selected is not None:
            reached = transition(h, trace.selected, cfg.schema)
            if reached.error is not None:
                apply(trace.selected, h)  # a trace deploying what does not apply: raise apply's own refusal
            h = reached.h2
        if h.digest() != trace.deployed_digest:
            raise ConfigError(f"trace at tick {trace.tick} does not replay to its deployed digest")
        yield trace, x, z, registry, h_before, h


def replay_deployments(
    scenario, cfg: OrchestratorConfig, traces: Sequence[DecisionTrace]
) -> list[tuple[int, Hypothesis, SemanticState, Regime]]:
    """The deployed hypothesis, semantic state and regime at each tick, as
    ``replay`` reconstructs them."""
    regimes = {r.label: r for r in cfg.regimes}
    replayed = replay(scenario, cfg, traces)
    return [(trace.tick, h, z, regimes[trace.regime_label]) for trace, _, z, _, _, h in replayed]
