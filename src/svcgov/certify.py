"""The four obligation certifiers, the five-condition substitution check,
the drift ledger, and the capacity measure.

A transformation is admissible when, for the transformed hypothesis:

* A1 (closure): the graph stays type-sound and the transformation lies
  inside the grammar;
* A2 (stability): the charged drift fits the cumulative bound and the
  destination regime's switching budget;
* A3 (capacity): structural complexity stays within budget;
* A4 (invariance): the invariant core holds and identity is preserved at
  or above the certified threshold.

Substitutions additionally pass five conditions (S1 function class or
certified refinement, S2 dependent roles satisfiable, S3 core certified,
S4 transition cost within the regime budget, S5 no contradicting failure
memory).  All bound comparisons are inclusive.  The aggregate verdict
always reports every obligation; nothing short-circuits silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .certificates import CertContext, Certificate, Violation, environment_digest
from .errors import ConfigError, UnknownSite
from .evaluation import (
    BOUND_EPS,
    Commitments,
    CoreReport,
    IdentityBreakdown,
    InvariantCore,
    Regime,
    StructuralPrior,
    _commitments,
    core_value,
    identity_breakdown,
    prior_complexity,
)
from .fields import Fields, array, number, row, text
from .memory import EMPTY_STORE, FailureSignature, MemoryStore, find_transportable, match_failure
from .model import Component, Hypothesis, SemanticState, SoundnessReport, contract_check, type_soundness, uncovered
from .ontology import OntologySchema
from .transform import (
    MalformedTransformation,
    Rebind,
    Substitute,
    Transformation,
    TransformationGrammar,
    apply,
    variant_name,
)

if TYPE_CHECKING:  # pragma: no cover
    from .orchestrator import OrchestratorConfig, RunMemo


# ---------------------------------------------------------------------------
# Drift ledger and regime-switch model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerEntry:
    from_regime: str
    to_regime: str
    cost: float
    residual: float

    def to_data(self) -> dict:
        return {"from": self.from_regime, "to": self.to_regime, "cost": self.cost, "residual": self.residual}


@dataclass(frozen=True)
class DriftLedger:
    """Bookkeeping bound on cumulative drift; updated only by certificate
    issue, by replacement (the ledger itself is immutable)."""

    bound: float
    entries: tuple[LedgerEntry, ...] = ()
    _total: float | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def total(self) -> float:
        # entries added left to right from the integer 0, as sum() did before
        # Python 3.12 compensated float rounding; ``charged`` carries it on
        if self._total is None:
            total = 0
            for e in self.entries:
                total += e.cost + e.residual
            object.__setattr__(self, "_total", total)
        return self._total

    @property
    def valid(self) -> bool:
        return self.total <= self.bound + BOUND_EPS

    def charged(self, entry: LedgerEntry) -> "DriftLedger":
        grown = DriftLedger(bound=self.bound, entries=self.entries + (entry,))
        object.__setattr__(grown, "_total", self.total + (entry.cost + entry.residual))
        return grown

    def to_data(self) -> dict:
        return {"bound": self.bound, "total": self.total, "entries": [e.to_data() for e in self.entries]}


@dataclass(frozen=True)
class RegimeSwitchModel:
    """Declared switch costs C(e, e'), adaptation residuals, constraint
    rewrite recipes applied on regime entry, and the unit cost of one role
    reassignment used by the structural charge."""

    costs: tuple[tuple[str, str, float], ...] = ()
    residuals: tuple[tuple[str, str, float], ...] = ()
    recipes: tuple[tuple[str, str, tuple[tuple[str, float], ...]], ...] = ()
    reassignment_unit_cost: float = 1.0

    def __post_init__(self) -> None:
        for a, b, c in self.costs:
            if c < 0:
                raise ConfigError(f"switch cost C({a}, {b}) must be nonnegative")
            if a == b and c != 0:
                raise ConfigError(f"C({a}, {a}) must be zero")
        for a, b, r in self.residuals:
            if r < 0:
                raise ConfigError(f"residual bound for {a}->{b} must be nonnegative")
        if self.reassignment_unit_cost < 0:
            raise ConfigError("reassignment unit cost must be nonnegative")
        for part, entries in (("costs", self.costs), ("residuals", self.residuals), ("recipes", self.recipes)):
            pairs = [(a, b) for a, b, _ in entries]
            repeated = sorted({f"{a}->{b}" for i, (a, b) in enumerate(pairs) if (a, b) in pairs[:i]})
            if repeated:
                raise ConfigError(f"{part} declare a switch more than once: {', '.join(repeated)}")

    @staticmethod
    def _lookup(entries: tuple, from_label: str, to_label: str, default: object):
        """The value that ``entries`` declare for the switch ``from_label -> to_label``."""
        for a, b, value in entries:
            if a == from_label and b == to_label:
                return value
        return default

    def cost(self, from_label: str, to_label: str) -> float:
        return 0.0 if from_label == to_label else self._lookup(self.costs, from_label, to_label, 0.0)

    def residual(self, from_label: str, to_label: str) -> float:
        return 0.0 if from_label == to_label else self._lookup(self.residuals, from_label, to_label, 0.0)

    def recipe(self, from_label: str, to_label: str) -> tuple[tuple[str, float], ...]:
        return self._lookup(self.recipes, from_label, to_label, ())

    def to_data(self) -> dict:
        return {
            "costs": [[a, b, c] for a, b, c in self.costs],
            "residuals": [[a, b, r] for a, b, r in self.residuals],
            "recipes": [[a, b, [[n, v] for n, v in rw]] for a, b, rw in self.recipes],
            "reassignment_unit_cost": self.reassignment_unit_cost,
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "RegimeSwitchModel":
        r, switches = Fields(data), array(row(text, text, number))
        costs, residuals = r.get("costs", switches, ()), r.get("residuals", switches, ())
        recipes = r.get("recipes", array(row(text, text, array(row(text, number)))), ())
        unit_cost = r.get("reassignment_unit_cost", number, cls.reassignment_unit_cost)
        return r.build(cls, costs, residuals, recipes, unit_cost)


def structural_charge(
    h: Hypothesis, h2: Hypothesis, model: RegimeSwitchModel, *, before: "StepFacts | None" = None
) -> float:
    """Constraint-vector distance plus reassignment count times the unit
    cost.  A constraint present on one side only contributes its own
    magnitude; added or removed roles count one reassignment each.
    ``before`` holds the maps of ``h`` when the caller has already built
    them."""
    if before is None:
        before = StepFacts(h)
    before_constraints = before.constraints
    after = h2.constraint_map()
    distance = 0.0
    for name in sorted(before_constraints.keys() | after.keys()):
        if name in before_constraints and name in after:
            distance += abs(before_constraints[name] - after[name])
        else:
            distance += abs(before_constraints.get(name, after.get(name, 0.0)))
    before_roles = before.role_ids
    after_roles = set(h2.role_ids())
    reassigned = len(before_roles ^ after_roles)
    before_assignment = before.assignment
    after_assignment = h2.assignment_map()
    for rid in before_roles & after_roles:
        if before_assignment.get(rid) != after_assignment.get(rid):
            reassigned += 1
    return distance + reassigned * model.reassignment_unit_cost


# ---------------------------------------------------------------------------
# Step and candidate facts
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class StepFacts:
    """What one screening step fixes for every candidate it screens: the
    configuration ``h`` that candidates start from, the semantic state
    ``z``, the parts of the config that the obligations read, the memo of
    the run or scan, the certificate context and the memory store that S5
    reads (the empty store with the memory gate off).  The facts about
    ``h`` are computed on first use and then kept, so every candidate
    reads the same value.

    ``Orchestrator.step`` builds one per decision step and the regret
    oracle one per tick.  A standalone certifier or a bare ``admissible``
    call builds one from its own arguments; the inputs it does not take
    stay None, and no fact that needs them is read.
    """

    h: Hypothesis | None = None
    z: SemanticState | None = None
    schema: OntologySchema | None = None
    core: InvariantCore | None = None
    prior: StructuralPrior | None = None
    model: RegimeSwitchModel | None = None
    memo: "RunMemo | None" = None
    context: CertContext | None = None
    store: MemoryStore = EMPTY_STORE

    @classmethod
    def screening(
        cls,
        h: Hypothesis,
        z: SemanticState,
        e: Regime,
        store: MemoryStore,
        cfg: "OrchestratorConfig",
        memo: "RunMemo | None" = None,
    ) -> "StepFacts":
        """The facts of screening candidates from ``h`` under ``z`` into
        regime ``e`` on ``cfg``.  With a ``memo``, which must be built on
        ``cfg``, the environment class of ``z`` and the soundness of each
        graph are read through it; without one they are digested and
        judged afresh."""
        if memo is not None and memo.cfg is not cfg:
            raise ConfigError("the memo passed to admissible is built on another config")
        environment = memo.environment(z) if memo is not None else environment_digest(z, cfg.schema)
        context = CertContext(e.label, environment)
        store = store if cfg.flags.memory else EMPTY_STORE
        return cls(h, z, cfg.schema, cfg.core, cfg.prior, cfg.switch_model, memo, context, store)

    def candidate(self, tau: Transformation) -> "CandidateFacts":
        """The facts of the configuration that ``tau`` reaches from ``h``;
        when ``tau`` is not applicable, of ``h`` itself, with the reason."""
        try:
            return CandidateFacts(apply(tau, self.h), self)
        except (UnknownSite, MalformedTransformation) as exc:
            return CandidateFacts(self.h, self, str(exc))

    @cached_property
    def commitments(self) -> Commitments:
        """What ``h`` commits to under ``z``: the before side of identity."""
        return _commitments(self.h, self.z, self.schema)

    @cached_property
    def constraints(self) -> dict[str, float]:
        return self.h.constraint_map()

    @cached_property
    def role_ids(self) -> frozenset[str]:
        return frozenset(self.h.role_ids())

    @cached_property
    def assignment(self) -> dict[str, Component]:
        return self.h.assignment_map()


@dataclass(eq=False)
class CandidateFacts:
    """The configuration ``h2`` that a candidate reaches in a screening
    ``step``, and the facts about it that the obligations and the ranking
    read.  Each fact is computed on first use and then kept, so every
    reader sees the same value and a fact nobody reads costs nothing.
    ``error`` says why the candidate's transformation is not applicable;
    ``h2`` is then the step's ``h``."""

    h2: Hypothesis
    step: StepFacts
    error: str | None = None

    @cached_property
    def soundness(self) -> SoundnessReport:
        step = self.step
        if step.memo is not None:
            return step.memo.soundness(self.h2)
        return type_soundness(self.h2, step.schema)

    @cached_property
    def commitments(self) -> Commitments:
        """What ``h2`` commits to under ``z``; both identity measures and the
        core predicates read it."""
        return _commitments(self.h2, self.step.z, self.step.schema)

    @cached_property
    def core_report(self) -> CoreReport:
        step = self.step
        return core_value(step.core, self.h2, step.z, step.schema, commitments=self.commitments)

    @cached_property
    def identity(self) -> IdentityBreakdown:
        step = self.step
        return identity_breakdown(
            step.core.identity,
            step.h,
            self.h2,
            step.z,
            step.schema,
            before_commitments=step.commitments,
            after_commitments=self.commitments,
        )

    @cached_property
    def charge(self) -> float:
        """Structural charge of reaching ``h2`` from ``h``."""
        return structural_charge(self.step.h, self.h2, self.step.model, before=self.step)

    @cached_property
    def complexity(self) -> float:
        return prior_complexity(self.step.prior, self.h2)

    @cached_property
    def failures(self) -> list[FailureSignature]:
        """The stored failure signatures whose motif occurs in ``h2``, in the
        step's environment class; S5 and the reuse score read them."""
        return match_failure(self.step.store, self.h2, self.step.context.environment_digest)


# ---------------------------------------------------------------------------
# Obligation certifiers
# ---------------------------------------------------------------------------


def certify_closure(
    h2: Hypothesis,
    schema: OntologySchema,
    grammar: TransformationGrammar,
    tau: Transformation,
    context: CertContext,
    tick: int = 0,
) -> Certificate | Violation:
    """A1: the transformed graph is type-sound and the transformation lies
    inside the grammar."""
    return _closure(CandidateFacts(h2, StepFacts(schema=schema)), grammar, tau, context, tick)


def _closure(
    facts: CandidateFacts,
    grammar: TransformationGrammar,
    tau: Transformation,
    context: CertContext,
    tick: int,
) -> Certificate | Violation:
    report = facts.soundness
    in_grammar = grammar.allows(tau)
    evidence: dict[str, object] = {
        "sound": report.sound,
        "in_grammar": in_grammar,
        "variant": variant_name(tau),
    }
    if report.sound and in_grammar:
        return Certificate("closure", facts.h2.digest(), context, tuple(sorted(evidence.items())), tick)
    evidence["violations"] = report.messages()
    if not report.sound:
        message = f"transformed graph is not type-sound: {report.messages()[0]}"
    else:
        message = f"{variant_name(tau)} transformation lies outside the grammar"
    return Violation("A1", message, tuple(sorted(evidence.items())))


def certify_stability(
    h: Hypothesis,
    h2: Hypothesis,
    ledger: DriftLedger,
    model: RegimeSwitchModel,
    e: Regime,
    e2: Regime,
    context: CertContext,
    tick: int = 0,
) -> tuple[Certificate | Violation, DriftLedger]:
    """A2: the charge (structural drift plus declared switch cost and
    residual when regimes differ) fits both the cumulative bound and the
    destination regime's switching budget.  The ledger is updated only on
    certificate issue."""
    outcome, entry = _stability(CandidateFacts(h2, StepFacts(h, model=model)), ledger, e, e2, context, tick)
    return outcome, ledger.charged(entry) if isinstance(outcome, Certificate) else ledger


def _stability(
    facts: CandidateFacts, ledger: DriftLedger, e: Regime, e2: Regime, context: CertContext, tick: int
) -> tuple[Certificate | Violation, LedgerEntry]:
    """The A2 outcome, and the entry that its charge adds to ``ledger``
    when the candidate deploys."""
    model = facts.step.model
    structural = facts.charge
    switch_cost = model.cost(e.label, e2.label)
    residual = model.residual(e.label, e2.label)
    cost = structural + switch_cost
    charge = cost + residual
    budget = e2.budgets.switching_cost
    evidence: dict[str, object] = {
        "structural": structural,
        "switch_cost": switch_cost,
        "residual": residual,
        "charge": charge,
        "ledger_before": ledger.total,
        "ledger_bound": ledger.bound,
        "switching_budget": budget,
        "from_regime": e.label,
        "to_regime": e2.label,
    }
    within_bound = ledger.total + charge <= ledger.bound + BOUND_EPS
    within_budget = charge <= budget + BOUND_EPS
    entry = LedgerEntry(e.label, e2.label, cost, residual)
    if within_bound and within_budget:
        return Certificate("stability", facts.h2.digest(), context, tuple(sorted(evidence.items())), tick), entry
    if not within_bound:
        message = f"cumulative drift {ledger.total + charge:.6g} exceeds bound {ledger.bound:.6g}"
    else:
        message = f"charge {charge:.6g} exceeds switching budget {budget:.6g}"
    return Violation("A2", message, tuple(sorted(evidence.items()))), entry


def certify_capacity(
    h2: Hypothesis,
    prior: StructuralPrior,
    budget: float,
    context: CertContext,
    tick: int = 0,
) -> Certificate | Violation:
    """A3: structural complexity within the (inclusive) budget."""
    return _capacity(CandidateFacts(h2, StepFacts(prior=prior)), budget, context, tick)


def _capacity(
    facts: CandidateFacts, budget: float, context: CertContext, tick: int
) -> Certificate | Violation:
    if budget <= 0:
        raise ConfigError("capacity budget must be positive")
    complexity = facts.complexity
    evidence: dict[str, object] = {"complexity": complexity, "budget": budget}
    if complexity <= budget + BOUND_EPS:
        return Certificate("capacity", facts.h2.digest(), context, tuple(sorted(evidence.items())), tick)
    return Violation(
        "A3", f"complexity {complexity:.6g} exceeds budget {budget:.6g}", tuple(sorted(evidence.items()))
    )


def certify_invariance(
    before: Hypothesis,
    after: Hypothesis,
    z: SemanticState,
    core: InvariantCore,
    schema: OntologySchema,
    context: CertContext,
    tick: int = 0,
) -> Certificate | Violation:
    """A4: the invariant core holds on the transformed hypothesis, and
    identity is preserved at or above the threshold whenever identity is
    part of the core."""
    step = StepFacts(before, z, schema, core)
    return _invariance(CandidateFacts(after, step), context, tick)


def _invariance(facts: CandidateFacts, context: CertContext, tick: int) -> Certificate | Violation:
    core = facts.step.core
    report = facts.core_report
    breakdown = facts.identity
    evidence: dict[str, object] = {
        "core_value": report.value,
        "core_passed": report.passed,
        "predicates": {name: ok for name, ok in report.predicate_results},
        "identity_score": breakdown.total,
        "identity_subscores": breakdown.to_data(),
        "identity_threshold": core.identity.threshold,
        "identity_gated": core.include_identity,
        "absolute_identity": report.identity_value,
    }
    if report.passed and core.identity_holds(breakdown.total):
        return Certificate("invariance", facts.h2.digest(), context, tuple(sorted(evidence.items())), tick)
    failed = [name for name, ok in report.predicate_results if not ok]
    if failed:
        message = f"hard safety predicates failed: {', '.join(failed)}"
    else:
        message = (
            f"identity {breakdown.total:.6g} below threshold {core.identity.threshold:.6g}"
        )
    return Violation("A4", message, tuple(sorted(evidence.items())))


def _substitution_sites(h: Hypothesis, c1: Component) -> tuple[str, ...]:
    sites = tuple(rid for rid, comp in h.assignment if comp.component_id == c1.component_id)
    if not sites:
        raise UnknownSite(f"component {c1.component_id} is not assigned in the hypothesis")
    return sites


def _substituted(h: Hypothesis, sites: Sequence[str], c1: Component, c2: Component) -> Hypothesis:
    for rid in sites:
        h = apply(Substitute(rid, c1.component_id, c2), h)
    return h


def certify_substitution(
    c1: Component,
    c2: Component,
    h: Hypothesis,
    z: SemanticState,
    store: MemoryStore,
    schema: OntologySchema,
    core: InvariantCore,
    model: RegimeSwitchModel,
    regime: Regime,
    context: CertContext,
    tick: int = 0,
) -> Certificate | Violation:
    """The five-condition typed substitution check for c1 -> c2 at every
    role currently bound to c1.  Evidence lists each condition's result.
    S5 looks for failures in ``store`` in the environment class of
    ``context``."""
    sites = _substitution_sites(h, c1)
    step = StepFacts(h, z, schema, core, model=model, context=context, store=store)
    return _substitution(c1, c2, sites, CandidateFacts(_substituted(h, sites, c1, c2), step), regime, context, tick)


def _substitution(
    c1: Component,
    c2: Component,
    sites: Sequence[str],
    facts: CandidateFacts,
    regime: Regime,
    context: CertContext,
    tick: int,
) -> Certificate | Violation:
    h, h2, schema = facts.step.h, facts.h2, facts.step.schema
    conditions: list[tuple[str, str, bool]] = []

    s1_ok = not any(uncovered(h.role(rid), c2, schema) for rid in sites)
    conditions.append(("S1", "function-class", s1_ok))

    touched = set(sites)
    s2_ok = facts.soundness.sound
    if s2_ok:
        satisfies = contract_check(h2, schema)
        s2_ok = all(
            satisfies(edge.contract) for edge in h2.edges if edge.from_role in touched or edge.to_role in touched
        )
    conditions.append(("S2", "dependent-roles", s2_ok))

    s3_ok = facts.core_report.passed and facts.step.core.identity_holds(facts.identity.total)
    conditions.append(("S3", "core-certified", s3_ok))

    charge = facts.charge
    s4_ok = charge <= regime.budgets.switching_cost + BOUND_EPS
    conditions.append(("S4", "transition-budget", s4_ok))

    contradictions = facts.failures
    s5_ok = not contradictions
    conditions.append(("S5", "memory-consistent", s5_ok))

    evidence: dict[str, object] = {
        "old_component": c1.component_id,
        "new_component": c2.component_id,
        "sites": sorted(sites),
        "conditions": {code: ok for code, _, ok in conditions},
        "transition_charge": charge,
        "identity_score": facts.identity.total,
        "matched_failures": len(contradictions),
    }
    if all(ok for _, _, ok in conditions):
        return Certificate("substitution", h2.digest(), context, tuple(sorted(evidence.items())), tick)
    first = next((code, name) for code, name, ok in conditions if not ok)
    return Violation(first[0], f"substitution condition {first[0]} ({first[1]}) failed", tuple(sorted(evidence.items())))


# ---------------------------------------------------------------------------
# Aggregate admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObligationResult:
    code: str
    certified: bool
    gated: bool
    certificate: Certificate | None = None
    violation: Violation | None = None

    @property
    def passed(self) -> bool:
        """Effective result after gating: ungated obligations report their
        evidence but do not block."""
        return self.certified or not self.gated

    def to_data(self) -> dict:
        return {
            "code": self.code,
            "certified": self.certified,
            "gated": self.gated,
            "passed": self.passed,
            "certificate": self.certificate.to_data() if self.certificate else None,
            "violation": self.violation.to_data() if self.violation else None,
        }


def _as_result(code: str, outcome: Certificate | Violation, gated: bool) -> ObligationResult:
    if isinstance(outcome, Certificate):
        return ObligationResult(code, certified=True, gated=gated, certificate=outcome)
    return ObligationResult(code, certified=False, gated=gated, violation=outcome)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Aggregated result of the four obligation certifiers plus the
    substitution certifier and the identity check; every obligation is
    reported whether or not it gates.  It holds no candidate facts, so a
    verdict kept in a trace retains none of them."""

    passed: bool
    obligations: tuple[tuple[str, ObligationResult], ...]
    substitution: ObligationResult | None
    identity_score: float
    identity_passed: bool
    certificates: tuple[Certificate, ...]
    updated_ledger: DriftLedger
    transported: int
    before_digest: str
    after_digest: str
    error: str = ""

    def obligation(self, code: str) -> ObligationResult:
        for key, result in self.obligations:
            if key == code:
                return result
        raise KeyError(code)

    def violation_codes(self) -> tuple[str, ...]:
        codes = [code for code, result in self.obligations if not result.certified]
        if self.substitution is not None and not self.substitution.certified:
            codes.append(self.substitution.code)
        return tuple(codes)

    @property
    def charge(self) -> float:
        """The A2 charge of reaching the candidate; 0 when the
        transformation was not applicable."""
        a2 = self.obligation("A2")
        source = a2.certificate or a2.violation
        return float(source.evidence_map().get("charge", 0.0)) if source is not None else 0.0

    def to_data(self) -> dict:
        return {
            "passed": self.passed,
            "obligations": {code: r.to_data() for code, r in self.obligations},
            "substitution": self.substitution.to_data() if self.substitution else None,
            "identity_score": self.identity_score,
            "identity_passed": self.identity_passed,
            "transported": self.transported,
            "before": self.before_digest,
            "after": self.after_digest,
            "error": self.error,
        }


def admissible(
    tau: Transformation,
    h: Hypothesis,
    z: SemanticState,
    e: Regime,
    store: MemoryStore,
    cfg: "OrchestratorConfig",
    ledger: DriftLedger | None = None,
    from_regime: Regime | None = None,
    tick: int = 0,
    memo: "RunMemo | None" = None,
    facts: CandidateFacts | None = None,
) -> AdmissibilityVerdict:
    """Run all four certifiers (plus the substitution certifier for
    substitution-class transformations) and aggregate.  ``tau`` is applied
    once, and every obligation reads the same candidate facts.

    ``e`` is the destination regime; ``from_regime`` defaults to it when
    no switch is in flight.  A caller that screens many candidates passes
    the ``memo`` of its run or scan (see ``StepFacts.screening``) and the
    ``facts`` of ``tau``, ``StepFacts.screening(h, z, e, store, cfg,
    memo).candidate(tau)``, built from the step's one ``StepFacts``, so
    that it can read them beside the verdict; without them they are built
    from the arguments.  The returned ledger is charged for the candidate
    only when it passes with A2 certified, and is adopted by the caller
    only if the candidate deploys."""
    if facts is None:
        facts = StepFacts.screening(h, z, e, store, cfg, memo).candidate(tau)
    flags = cfg.flags
    if ledger is None:
        ledger = DriftLedger(bound=cfg.drift_bound)
    if from_regime is None:
        from_regime = e
    step = facts.step
    context = step.context
    environment = context.environment_digest

    if facts.error is not None:
        violation = Violation("A1", f"transformation not applicable: {facts.error}")
        results = tuple(
            (code, ObligationResult(code, certified=False, gated=True, violation=violation))
            for code in ("A1", "A2", "A3", "A4")
        )
        return AdmissibilityVerdict(
            passed=False,
            obligations=results,
            substitution=None,
            identity_score=0.0,
            identity_passed=False,
            certificates=(),
            updated_ledger=ledger,
            transported=0,
            before_digest=h.digest(),
            after_digest="",
            error=facts.error,
        )
    h2 = facts.h2

    # a closure or capacity certificate transported from memory stands in
    # for computing that obligation afresh
    moved_closure = moved_capacity = None
    if flags.memory:
        moved_closure = find_transportable(store, "closure", h2, environment, cfg.transport_max_distance, e.label)
        moved_capacity = find_transportable(store, "capacity", h2, environment, cfg.transport_max_distance, e.label)
    transported = (moved_closure is not None) + (moved_capacity is not None)

    closure_outcome = moved_closure or _closure(facts, cfg.grammar, tau, context, tick)
    a1 = _as_result("A1", closure_outcome, gated=flags.closure)

    stability_outcome, entry = _stability(facts, ledger, from_regime, e, context, tick)
    a2 = _as_result("A2", stability_outcome, gated=flags.stability)

    capacity_budget = min(cfg.capacity_budget, e.budgets.complexity)
    capacity_outcome = moved_capacity or _capacity(facts, capacity_budget, context, tick)
    a3 = _as_result("A3", capacity_outcome, gated=flags.capacity)

    a4 = _as_result("A4", _invariance(facts, context, tick), gated=flags.invariance)

    substitution_result: ObligationResult | None = None
    if isinstance(tau, (Substitute, Rebind)):
        current = step.assignment.get(tau.role_id)
        if current is not None:
            sites = _substitution_sites(h, current)
            # Substituting ``current`` at its only site is exactly ``tau``,
            # so the substitution graph is h2; with more sites it is not.
            if sites == (tau.role_id,):
                site_facts = facts
            else:
                site_facts = CandidateFacts(_substituted(h, sites, current, tau.new_component), step)
            outcome = _substitution(current, tau.new_component, sites, site_facts, e, context, tick)
            code = outcome.code if isinstance(outcome, Violation) else "S"
            substitution_result = _as_result(code, outcome, gated=flags.substitution)

    obligations = (("A1", a1), ("A2", a2), ("A3", a3), ("A4", a4))
    passed = all(result.passed for _, result in obligations)
    if substitution_result is not None:
        passed = passed and substitution_result.passed

    identity_score = facts.identity.total
    identity_passed = cfg.core.identity.admits(identity_score)

    certificates = tuple(
        result.certificate
        for result in (a1, a2, a3, a4, substitution_result)
        if result is not None and result.certificate is not None
    )
    return AdmissibilityVerdict(
        passed=passed,
        obligations=obligations,
        substitution=substitution_result,
        identity_score=identity_score,
        identity_passed=identity_passed,
        certificates=certificates,
        updated_ledger=ledger.charged(entry) if passed and a2.certified else ledger,
        transported=transported,
        before_digest=h.digest(),
        after_digest=h2.digest(),
    )


# ---------------------------------------------------------------------------
# Capacity measure and composed bounds
# ---------------------------------------------------------------------------


def capacity_measure(space: Iterable[Hypothesis]) -> int:
    """Cardinality of a finite hypothesis space (distinct digests); the
    reference complexity measure, monotone under set inclusion by
    construction."""
    return len({h.digest() for h in space})


def composed_drift_bound(local_bounds: Sequence[float], interface_term: float) -> float:
    """Global stability allowance for a composed update: the sum of local
    bounds plus one interface term per subservice boundary."""
    return float(sum(local_bounds)) + max(0, len(local_bounds) - 1) * interface_term
