"""The four admissibility obligations, the five-condition substitution
check, the drift ledger, and the capacity measure.

A transformation is admissible when, for the transformed hypothesis:

* A1 (closure): the graph stays type-sound and the transformation lies
  inside the grammar;
* A2 (stability): the charged drift fits the cumulative bound and the
  destination regime's switching budget;
* A3 (capacity): structural complexity stays within budget;
* A4 (invariance): the invariant core holds and identity is preserved at
  or above the certified threshold.

``admissible`` screens them as one loop over ``OBLIGATIONS``.
Substitutions additionally pass five conditions (S1 function class or
certified refinement, S2 dependent roles satisfiable, S3 core certified,
S4 transition cost within the regime budget, S5 no contradicting failure
memory).  S2 is the type soundness of the substituted graph: soundness
declares every edge contract's concepts, and a graph's vocabularies and
propagated obligations contain every edge's contract, so on a sound graph
each role's contract edges are satisfied.  All bound comparisons are
inclusive.  The aggregate verdict always reports every obligation; nothing
short-circuits silently.

Every obligation and condition reads one set of candidate facts
(``StepFacts``, ``CandidateFacts``): each fact about a candidate, its
commitments included, has that one producer and is computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .certificates import CertContext, Certificate, Violation, environment_digest
from .errors import ConfigError, UnknownSite
from .evaluation import (
    BOUND_EPS,
    Commitments,
    CoreReport,
    IdentityBreakdown,
    InvariantCore,
    Regime,
    ScoreBreakdown,
    StructuralPrior,
    commitments_of,
    core_value,
    evaluate,
    identity_breakdown,
    prior_complexity,
)
from .fields import Fields, array, number, repeated, row, text
from .memory import EMPTY_STORE, TRANSPORTABLE_KINDS, FailureSignature, MemoryStore, find_transportable, match_failure
from .model import Component, Hypothesis, SemanticState, SoundnessReport, type_soundness, uncovered
from .ontology import OntologySchema
from .transform import (
    MalformedTransformation,
    Rebind,
    Substitute,
    Transformation,
    TransformationGrammar,
    apply,
    transformation_key,
    variant_name,
)

if TYPE_CHECKING:  # pragma: no cover
    from .orchestrator import OrchestratorConfig


# ---------------------------------------------------------------------------
# Drift ledger and regime-switch model
# ---------------------------------------------------------------------------


class LedgerEntry(NamedTuple):
    from_regime: str
    to_regime: str
    cost: float
    residual: float

    @property
    def charge(self) -> float:
        """What the entry adds to the ledger's total."""
        return self.cost + self.residual

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
                total += e.charge
            object.__setattr__(self, "_total", total)
        return self._total

    @property
    def valid(self) -> bool:
        return self.total <= self.bound + BOUND_EPS

    def charged(self, entry: LedgerEntry) -> "DriftLedger":
        grown = DriftLedger(bound=self.bound, entries=self.entries + (entry,))
        object.__setattr__(grown, "_total", self.total + entry.charge)
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
            if not c >= 0:
                raise ConfigError(f"switch cost C({a}, {b}) must be nonnegative")
            if a == b and c != 0:
                raise ConfigError(f"C({a}, {a}) must be zero")
        for a, b, r in self.residuals:
            if not r >= 0:
                raise ConfigError(f"residual bound for {a}->{b} must be nonnegative")
            if a == b and r != 0:
                raise ConfigError(f"residual bound for {a}->{a} must be zero")
            if self.cost(a, b) + r == math.inf:
                raise ConfigError(f"switch cost C({a}, {b}) plus its residual bound overflows a float")
        for a, b, _ in self.recipes:
            if a == b:
                raise ConfigError(f"recipe for {a}->{a} would never apply: a regime is entered only by a switch")
        if not self.reassignment_unit_cost >= 0:
            raise ConfigError("reassignment unit cost must be nonnegative")
        for part, entries in (("costs", self.costs), ("residuals", self.residuals), ("recipes", self.recipes)):
            if twice := repeated((a, b) for a, b, _ in entries):
                switches = ", ".join(f"{a}->{b}" for a, b in twice)
                raise ConfigError(f"{part} declare a switch more than once: {switches}")

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

    def structural(self, distance: float, reassigned: int) -> float:
        """The structural charge of a constraint distance and a reassignment count."""
        return distance + reassigned * self.reassignment_unit_cost

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


def structural_charge(h: Hypothesis, h2: Hypothesis, model: RegimeSwitchModel) -> float:
    """Constraint-vector distance plus reassignment count times the unit cost."""
    return model.structural(*_charge_parts(h, h2))


def _charge_parts(h: Hypothesis, h2: Hypothesis) -> tuple[float, int]:
    """The constraint-vector distance (a constraint on one side only adds its
    magnitude) and the reassignment count (an added or removed role counts
    one) of reaching ``h2`` from ``h``: the charge without a model."""
    before, after = h.constraint_map(), h2.constraint_map()
    distance = 0.0
    for name in sorted(before.keys() | after.keys()):
        if name in before and name in after:
            distance += abs(before[name] - after[name])
        else:
            distance += abs(before.get(name, after.get(name, 0.0)))
    before_roles, after_roles = set(h.role_ids()), set(h2.role_ids())
    reassigned = len(before_roles ^ after_roles)
    before_assignment, after_assignment = h.assignment_map(), h2.assignment_map()
    for rid in before_roles & after_roles:
        bound, rebound = before_assignment.get(rid), after_assignment.get(rid)
        if bound is not rebound and bound != rebound:  # most roles keep the very same component
            reassigned += 1
    return distance, reassigned


# ---------------------------------------------------------------------------
# Step and candidate facts
# ---------------------------------------------------------------------------


class kept:
    """A fact computed on its first read and kept in the instance's
    ``__dict__`` under its own name, where every later read finds it
    without reaching this descriptor: ``functools.cached_property``
    without the lock that it takes on each first read before Python 3.12."""

    def __init__(self, compute: Callable):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, facts: object, owner: type | None = None):
        if facts is None:
            return self
        value = facts.__dict__[self.name] = self.compute(facts)
        return value


@dataclass(eq=False)
class StepFacts:
    """What one screening step fixes for every candidate it screens: the
    configuration ``h`` that candidates start from, the semantic state
    ``z``, the parts of the config that the obligations read, the
    certificate context, the memory store and the regime switch
    ``from_regime -> e`` that candidates are screened on.  The commitments
    of ``h`` are computed on first use and then kept, so every candidate
    reads the same value.  This and ``CandidateFacts`` are the only engine
    callers of ``commitments_of``.

    The memory gate is decided once, in ``screening``: with the gate off
    the step's store is the empty store, so certificate transport finds
    nothing, S5 matches no failure and the reuse score is 0.

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
    context: CertContext | None = None
    store: MemoryStore = EMPTY_STORE
    e: Regime | None = None
    from_regime: Regime | None = None
    grammar: TransformationGrammar | None = None
    capacity_budget: float | None = None

    @classmethod
    def screening(
        cls,
        h: Hypothesis,
        z: SemanticState,
        e: Regime,
        store: MemoryStore,
        cfg: "OrchestratorConfig",
        from_regime: Regime | None = None,
    ) -> "StepFacts":
        """The facts of screening candidates from ``h`` under ``z`` on
        ``cfg``, on the switch ``from_regime -> e``; ``from_regime``
        defaults to ``e`` when no switch is in flight."""
        context = CertContext(e.label, environment_digest(z, cfg.schema))
        store = store if cfg.flags.memory else EMPTY_STORE
        budget = min(cfg.capacity_budget, e.budgets.complexity)
        config = cfg.schema, cfg.core, cfg.prior, cfg.switch_model
        return cls(h, z, *config, context, store, e, from_regime or e, cfg.grammar, budget)

    def candidate(self, tau: Transformation) -> "CandidateFacts":
        """The facts of the configuration that ``tau`` reaches from ``h``;
        when ``tau`` is not applicable, of ``h`` itself, with the reason.
        The transition is read through ``transition`` on the step's schema."""
        return CandidateFacts(transition(self.h, tau, self.schema), self)

    @kept
    def commitments(self) -> Commitments:
        """What ``h`` commits to under ``z``: the before side of identity."""
        return commitments_of(self.h, self.z, self.schema)


@dataclass(frozen=True, eq=False, slots=True)
class Transition:
    """Where a transformation takes a configuration ``h``: the configuration
    ``h2`` it reaches or, when it does not apply, ``h`` itself and the
    refusal text ``error``; and ``parts``, the model-free parts of the
    structural charge of reaching ``h2`` from ``h`` (constraint distance
    and reassignment count), worked out when the transition is made.
    ``transition`` keeps one per distinct pair of configuration and
    transformation in the schema's memo, so every step of every run and
    scan that meets the pair reads the same ``h2`` object, digest included,
    and the same parts; a config's switch model prices the parts, so none
    of the config is kept.  ``parts`` is None only where a standalone
    certifier is given no ``h`` (closure, capacity)."""

    h2: Hypothesis
    error: str | None = None
    parts: tuple[float, int] | None = None

    @classmethod
    def reached(cls, h: Hypothesis, h2: Hypothesis, error: str | None = None) -> "Transition":
        """The transition from ``h`` to ``h2``, however ``h2`` was reached."""
        return cls(h2, error, _charge_parts(h, h2))

    @classmethod
    def of(cls, tau: Transformation, h: Hypothesis) -> "Transition":
        """``tau`` applied to ``h``, or the refusal of ``apply``."""
        try:
            return cls.reached(h, apply(tau, h))
        except (UnknownSite, MalformedTransformation) as exc:
            return cls.reached(h, h, str(exc))


def transition(h: Hypothesis, tau: Transformation, schema: OntologySchema) -> Transition:
    """``Transition.of(tau, h)``, kept in ``schema.memo`` under the digest of
    ``h`` and ``transformation_key(tau)``, which ``tau`` keeps once read.  It
    is keyed by the canonical key, never by the value:
    ``UpdateConstraint("v", 0.0)`` and ``UpdateConstraint("v", -0.0)`` are
    equal and hash equal, yet they reach configurations of different
    digests."""
    return schema.remembered(("transition", h.digest(), transformation_key(tau)), Transition.of, tau, h)


class CandidateFacts:
    """The configuration ``h2`` that a candidate reaches in a screening
    ``step``, and the facts about it that the obligations and the ranking
    read.  Each fact is computed on first use and then ``kept``, so every
    reader sees the same value and a fact nobody reads costs nothing.
    ``error`` says why the candidate's transformation is not applicable;
    ``h2`` is then the step's ``h``.  Both are read once from the
    candidate's ``transition``, which also holds its charge parts."""

    def __init__(self, transition: Transition, step: StepFacts):
        self.transition, self.step = transition, step
        self.h2: Hypothesis = transition.h2
        self.error: str | None = transition.error

    @kept
    def soundness(self) -> SoundnessReport:
        return type_soundness(self.h2, self.step.schema)

    @kept
    def commitments(self) -> Commitments:
        """What ``h2`` commits to under ``z``; both identity measures and the
        core predicates read it."""
        return commitments_of(self.h2, self.step.z, self.step.schema)

    @kept
    def core_report(self) -> CoreReport:
        step = self.step
        return core_value(step.core, self.h2, step.z, step.schema, self.commitments)

    @kept
    def identity(self) -> IdentityBreakdown:
        """``identity_breakdown`` of ``h2`` against ``h``, which reads both
        sides' commitments and so only the two graphs and the required and
        output functions of ``z``: kept in ``schema.memo`` under those."""
        step = self.step
        spec, before, after, z = step.core.identity, step.commitments, self.commitments, step.z
        key = ("identity", spec, step.h.digest(), self.h2.digest(), z.required_functions, z.output_functions)
        return step.schema.remembered(key, identity_breakdown, spec, before, after)

    @kept
    def core_certified(self) -> bool:
        """A4's pass test, which S3 reads too: the invariant core holds on
        ``h2``, and identity reaches the threshold when it is part of the
        core."""
        return self.core_report.passed and self.step.core.identity_holds(self.identity.total)

    @kept
    def charge(self) -> float:
        """``structural_charge`` of reaching ``h2`` from ``h``: the
        transition's parts priced on the step's switch model."""
        return self.step.model.structural(*self.transition.parts)

    @kept
    def entry(self) -> LedgerEntry:
        """The A2 charge of reaching ``h2`` on the step's switch, as the
        ledger entry it adds: the cost is the structural charge plus the
        declared switch cost, the residual is the declared adaptation
        residual, and the entry's ``charge`` is their sum.  A candidate
        whose transformation is not applicable reaches nothing and is
        charged 0."""
        step = self.step
        a, b = step.from_regime.label, step.e.label
        if self.error is not None:
            return LedgerEntry(a, b, 0.0, 0.0)
        return LedgerEntry(a, b, self.charge + step.model.cost(a, b), step.model.residual(a, b))

    def score(self, reuse: float) -> ScoreBreakdown:
        """The score of ``h2`` in the step's destination regime, with the
        reuse term ``reuse`` and charged the A2 charge (``entry``)."""
        step = self.step
        return evaluate(step.e, self.h2, step.z, reuse, self.soundness, switching_cost=self.entry.charge)

    @kept
    def complexity(self) -> float:
        return prior_complexity(self.step.prior, self.h2)

    @kept
    def failures(self) -> list[FailureSignature]:
        """The stored failure signatures whose motif occurs in ``h2``, in the
        step's environment class; S5 and the reuse score read them."""
        return match_failure(self.step.store, self.h2, self.step.context.environment_digest)


# ---------------------------------------------------------------------------
# Obligations
# ---------------------------------------------------------------------------


#: What a rule finds: its evidence as ``(key, value)`` pairs in key order,
#: and why the obligation fails, or None.
Finding = tuple[tuple[tuple[str, object], ...], str | None]


def _closure(facts: CandidateFacts, tau: Transformation, ledger: DriftLedger) -> Finding:
    """A1: the transformed graph is type-sound and the transformation lies
    inside the grammar."""
    report = facts.soundness
    in_grammar = facts.step.grammar.allows(tau)
    evidence = (("in_grammar", in_grammar), ("sound", report.sound), ("variant", variant_name(tau)))
    if report.sound and in_grammar:
        return evidence, None
    evidence += (("violations", report.messages()),)
    if not report.sound:
        return evidence, f"transformed graph is not type-sound: {report.messages()[0]}"
    return evidence, f"{variant_name(tau)} transformation lies outside the grammar"


def _stability(facts: CandidateFacts, tau: Transformation, ledger: DriftLedger) -> Finding:
    """A2: the candidate's charge (``facts.entry``: structural drift plus the
    declared switch cost and residual of the step's switch) fits both the
    cumulative bound and the destination regime's switching budget."""
    e, e2 = facts.step.from_regime, facts.step.e
    entry = facts.entry
    charge = entry.charge
    budget = e2.budgets.switching_cost
    evidence = (
        ("charge", charge),
        ("from_regime", e.label),
        ("ledger_before", ledger.total),
        ("ledger_bound", ledger.bound),
        ("residual", entry.residual),
        ("structural", facts.charge),
        ("switch_cost", facts.step.model.cost(e.label, e2.label)),
        ("switching_budget", budget),
        ("to_regime", e2.label),
    )
    if not ledger.total + charge <= ledger.bound + BOUND_EPS:
        return evidence, f"cumulative drift {ledger.total + charge:.6g} exceeds bound {ledger.bound:.6g}"
    if not charge <= budget + BOUND_EPS:
        return evidence, f"charge {charge:.6g} exceeds switching budget {budget:.6g}"
    return evidence, None


def _capacity(facts: CandidateFacts, tau: Transformation, ledger: DriftLedger) -> Finding:
    """A3: structural complexity within the step's (inclusive) budget."""
    budget = facts.step.capacity_budget
    if not budget > 0:
        raise ConfigError("capacity budget must be positive")
    complexity = facts.complexity
    evidence = (("budget", budget), ("complexity", complexity))
    if complexity <= budget + BOUND_EPS:
        return evidence, None
    return evidence, f"complexity {complexity:.6g} exceeds budget {budget:.6g}"


def _invariance(facts: CandidateFacts, tau: Transformation, ledger: DriftLedger) -> Finding:
    """A4: the invariant core holds on the transformed hypothesis, and
    identity is preserved at or above the threshold whenever identity is
    part of the core."""
    core = facts.step.core
    report = facts.core_report
    breakdown = facts.identity
    evidence = (
        ("absolute_identity", report.identity_value),
        ("core_passed", report.passed),
        ("core_value", report.value),
        ("identity_gated", core.include_identity),
        ("identity_score", breakdown.total),
        ("identity_subscores", breakdown.to_data()),
        ("identity_threshold", core.identity.threshold),
        ("predicates", {name: ok for name, ok in report.predicate_results}),
    )
    if facts.core_certified:
        return evidence, None
    failed = [name for name, ok in report.predicate_results if not ok]
    if failed:
        return evidence, f"hard safety predicates failed: {', '.join(failed)}"
    return evidence, f"identity {breakdown.total:.6g} below threshold {core.identity.threshold:.6g}"


class Obligation(NamedTuple):
    """An admissibility obligation: the ``kind`` of certificate it issues
    (also the ``GateFlags`` field that arms it), the ``code`` of its
    violation, and the ``rule`` that finds its evidence and why it fails,
    or None."""

    kind: str
    code: str
    rule: Callable[[CandidateFacts, Transformation, DriftLedger], Finding]


#: A1-A4 in the order that ``admissible`` screens and reports them.
OBLIGATIONS = (
    Obligation("closure", "A1", _closure),
    Obligation("stability", "A2", _stability),
    Obligation("capacity", "A3", _capacity),
    Obligation("invariance", "A4", _invariance),
)

#: Where A2, whose certificate charges the ledger, sits in ``OBLIGATIONS``.
_A2 = next(i for i, obligation in enumerate(OBLIGATIONS) if obligation.rule is _stability)


def _outcome(
    kind: str, code: str | None, facts: CandidateFacts, tick: int, evidence: tuple, message: str | None
) -> Certificate | Violation:
    """The certificate of ``kind`` about the candidate's ``h2`` in the step's
    context when ``message`` is None; else the violation ``code`` that
    ``message`` explains.  Either carries ``evidence``, which every rule
    gives in key order, the order that certificates keep and compare."""
    if message is None:
        return Certificate(kind, facts.h2.digest(), facts.step.context, evidence, tick)
    return Violation(code, message, evidence)


def _certify(
    kind: str, facts: CandidateFacts, tau: Transformation, ledger: DriftLedger, tick: int
) -> Certificate | Violation:
    """The outcome of the entry of ``kind`` in ``OBLIGATIONS`` as it is when called."""
    code, rule = next((obligation.code, obligation.rule) for obligation in OBLIGATIONS if obligation.kind == kind)
    return _outcome(kind, code, facts, tick, *rule(facts, tau, ledger))


def certify_closure(
    h2: Hypothesis,
    schema: OntologySchema,
    grammar: TransformationGrammar,
    tau: Transformation,
    context: CertContext,
    tick: int = 0,
) -> Certificate | Violation:
    """A1 on ``h2``, reached by ``tau``."""
    step = StepFacts(schema=schema, context=context, grammar=grammar)
    return _certify("closure", CandidateFacts(Transition(h2), step), tau, None, tick)


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
    """A2 on reaching ``h2`` from ``h`` on the switch ``e -> e2``, and the
    ledger, charged only on certificate issue."""
    facts = CandidateFacts(Transition.reached(h, h2), StepFacts(h, model=model, context=context, e=e2, from_regime=e))
    outcome = _certify("stability", facts, None, ledger, tick)
    return outcome, ledger.charged(facts.entry) if isinstance(outcome, Certificate) else ledger


def certify_capacity(
    h2: Hypothesis,
    prior: StructuralPrior,
    budget: float,
    context: CertContext,
    tick: int = 0,
) -> Certificate | Violation:
    """A3 on ``h2`` under ``prior`` and ``budget``."""
    step = StepFacts(prior=prior, context=context, capacity_budget=budget)
    return _certify("capacity", CandidateFacts(Transition(h2), step), None, None, tick)


def certify_invariance(
    before: Hypothesis,
    after: Hypothesis,
    z: SemanticState,
    core: InvariantCore,
    schema: OntologySchema,
    context: CertContext,
    tick: int = 0,
) -> Certificate | Violation:
    """A4 on reaching ``after`` from ``before`` under ``z``."""
    step = StepFacts(before, z, schema, core, context=context)
    return _certify("invariance", CandidateFacts(Transition.reached(before, after), step), None, None, tick)


def _substitution_sites(h: Hypothesis, c1: Component) -> tuple[str, ...]:
    sites = h.sites_of(c1.component_id)
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
    step = StepFacts(h, z, schema, core, model=model, context=context, store=store, e=regime)
    facts = CandidateFacts(Transition.reached(h, _substituted(h, sites, c1, c2)), step)
    return _substitution(c1, c2, sites, facts, tick)


def _substitution(
    c1: Component,
    c2: Component,
    sites: Sequence[str],
    facts: CandidateFacts,
    tick: int,
) -> Certificate | Violation:
    """S1-S5 for ``c1 -> c2`` at ``sites``, the candidate's ``h2`` being the
    graph with every site substituted, in the step's destination regime.
    S2 reads ``h2``'s soundness report (see the module docstring)."""
    h, schema = facts.step.h, facts.step.schema
    conditions = (
        ("S1", "function-class", not any(uncovered(h.role(rid), c2, schema) for rid in sites)),
        ("S2", "dependent-roles", facts.soundness.sound),
        ("S3", "core-certified", facts.core_certified),
        ("S4", "transition-budget", facts.charge <= facts.step.e.budgets.switching_cost + BOUND_EPS),
        ("S5", "memory-consistent", not facts.failures),
    )
    evidence = (
        ("conditions", {code: ok for code, _, ok in conditions}),
        ("identity_score", facts.identity.total),
        ("matched_failures", len(facts.failures)),
        ("new_component", c2.component_id),
        ("old_component", c1.component_id),
        ("sites", sorted(sites)),
        ("transition_charge", facts.charge),
    )
    code, name = next(((code, name) for code, name, ok in conditions if not ok), (None, None))
    message = None if code is None else f"substitution condition {code} ({name}) failed"
    return _outcome("substitution", code, facts, tick, evidence, message)


# ---------------------------------------------------------------------------
# Aggregate admissibility
# ---------------------------------------------------------------------------


class ObligationResult(NamedTuple):
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
        return ObligationResult(code, True, gated, outcome)
    return ObligationResult(code, False, gated, None, outcome)


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
        return dict(self.obligations)[code]

    def violation_codes(self) -> tuple[str, ...]:
        codes = [code for code, result in self.obligations if not result.certified]
        if self.substitution is not None and not self.substitution.certified:
            codes.append(self.substitution.code)
        return tuple(codes)

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
    facts: CandidateFacts | None = None,
) -> AdmissibilityVerdict:
    """Screen ``tau`` through every entry of ``OBLIGATIONS`` in order (plus
    the substitution conditions for substitution-class transformations)
    and aggregate.  ``tau`` is applied at most once, not at all when a
    run or scan on the schema has already met it from the same
    configuration, and every obligation reads the same candidate facts.

    A caller that screens many candidates passes the ``facts`` of ``tau``,
    ``step.candidate(tau)``, built from the step's one ``StepFacts`` (see
    ``StepFacts.screening``), which holds the switch ``from_regime -> e``,
    so that it can read them beside the verdict; ``h``, ``store`` and
    ``e`` are then read from that step, not from the arguments.  Without them they are built from the arguments:
    ``e`` is the destination regime, and ``from_regime`` defaults to it
    when no switch is in flight.  The returned ledger is charged for the
    candidate only when it passes with A2 certified, and is adopted by the
    caller only if the candidate deploys."""
    if facts is None:
        facts = StepFacts.screening(h, z, e, store, cfg, from_regime=from_regime).candidate(tau)
    flags = cfg.flags
    if ledger is None:
        ledger = DriftLedger(bound=cfg.drift_bound)
    step = facts.step
    h, e = step.h, step.e

    if facts.error is not None:
        violation = Violation(OBLIGATIONS[0].code, f"transformation not applicable: {facts.error}")
        refusals = tuple((code, ObligationResult(code, False, True, None, violation)) for _, code, _ in OBLIGATIONS)
        return AdmissibilityVerdict(False, refusals, None, 0.0, False, (), ledger, 0, h.digest(), "", facts.error)
    h2 = facts.h2

    environment = step.context.environment_digest
    obligations, results, transported = [], [], 0
    for kind, code, rule in OBLIGATIONS:
        outcome = None
        if kind in TRANSPORTABLE_KINDS:
            # a certificate about h2 from the step's store (the empty store
            # with the memory gate off) stands in for the rule, a capacity
            # certificate only when judged under the step's budget
            outcome = find_transportable(step.store, kind, h2, environment, e.label)
            if outcome is not None and kind == "capacity":
                outcome = outcome if outcome.evidence_map().get("budget") == step.capacity_budget else None
            transported += outcome is not None
        if outcome is None:
            evidence, message = rule(facts, tau, ledger)
            outcome = _outcome(kind, code, facts, tick, evidence, message)
        results.append(_as_result(code, outcome, gated=getattr(flags, kind)))
        obligations.append((code, results[-1]))

    substitution_result: ObligationResult | None = None
    if isinstance(tau, (Substitute, Rebind)):
        current = h.binding(tau.role_id)
        if current is not None:
            sites = _substitution_sites(h, current)
            # Substituting ``current`` at its only site is exactly ``tau``,
            # so the substitution graph is h2; with more sites it is not.
            if sites == (tau.role_id,):
                site_facts = facts
            else:
                substituted = _substituted(h, sites, current, tau.new_component)
                site_facts = CandidateFacts(Transition.reached(h, substituted), step)
            outcome = _substitution(current, tau.new_component, sites, site_facts, tick)
            code = outcome.code if isinstance(outcome, Violation) else "S"
            substitution_result = _as_result(code, outcome, gated=flags.substitution)
            results.append(substitution_result)

    passed = all(result.passed for result in results)
    identity_score = facts.identity.total
    return AdmissibilityVerdict(
        passed,
        tuple(obligations),
        substitution_result,
        identity_score,
        cfg.core.identity.admits(identity_score),
        tuple(result.certificate for result in results if result.certified),
        ledger.charged(facts.entry) if passed and results[_A2].certified else ledger,
        transported,
        h.digest(),
        h2.digest(),
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
