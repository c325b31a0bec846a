"""Regime-indexed evaluators, the identity functional, the invariant core,
and the structural prior.

An evaluator is a weighted sum of five scores: task (deadline slack against
the policy's latency annotations), safety (raised platform flags fail soft
checks), semantic (type soundness, graded for near misses), cost (switching
charge against the regime budget plus a small size term), and reuse (the
memory term, supplied externally and clamped to [-1, 1]).

The invariant core pairs the identity functional with named hard safety
predicates.  Identity aggregates four preservation sub-scores: request
class, mandatory outputs, hard safety constraints, essential interaction
obligations.  Comparing a hypothesis against itself always scores 1.

Identity, the core and its predicates read a configuration's
``Commitments`` and never build them: ``commitments_of`` builds them, and
the engine calls it only from ``certify``'s step and candidate facts, so
each candidate's commitments are built once.  ``identity_score`` is the one
convenience entry that builds both sides itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import ConfigError
from .fields import Fields, anything, array, boolean, concept, keyed, mapping, number, read, sorted_items, text
from .model import (
    Hypothesis,
    SemanticState,
    SignalCondition,
    SoundnessReport,
    declared_condition,
    refuse_faults,
    some_clause_holds,
)
from .ontology import ConceptId, OntologySchema

SAFETY_CONSTRAINT_PREFIX = "safety."

#: Tolerance for all inclusive bound comparisons.
BOUND_EPS = 1e-9


def _clamp(value: float, low: float = 0.0, high: float = 1.0) -> float:
    return max(low, min(high, value))


def _named(pairs: Sequence[tuple[str, float]], name: str, default: float) -> float:
    """The value under ``name`` in ``pairs`` of distinct names, as
    ``dict(pairs).get(name, default)`` reads it, without building the dict."""
    for key, value in pairs:
        if key == name:
            return value
    return default


# ---------------------------------------------------------------------------
# Regimes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluatorWeights:
    task: float
    safety: float
    semantic: float
    cost: float
    reuse: float

    def __post_init__(self) -> None:
        values = (self.task, self.safety, self.semantic, self.cost, self.reuse)
        if any(w < 0 for w in values):
            raise ConfigError("evaluator weights must be nonnegative")
        if not any(values):
            raise ConfigError("evaluator weights must not all be zero")
        # each component score lies in [-1, 1], so a score's magnitude stays
        # within this sum, added in the order ``ScoreBreakdown.total`` adds
        if not math.isfinite(self.task + self.safety + self.semantic + self.cost + self.reuse):
            raise ConfigError("evaluator weights must sum to a finite number")

    def to_data(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_data(cls, data: Mapping) -> "EvaluatorWeights":
        return cls(*keyed(number, "task", "safety", "semantic", "cost", "reuse")(data))


@dataclass(frozen=True)
class RegimeBudgets:
    latency: float
    switching_cost: float
    complexity: float

    def __post_init__(self) -> None:
        if not all(budget > 0 for budget in (self.latency, self.switching_cost, self.complexity)):
            raise ConfigError("regime budgets must be positive")

    def to_data(self) -> dict:
        return {"latency": self.latency, "switching_cost": self.switching_cost, "complexity": self.complexity}

    @classmethod
    def from_data(cls, data: Mapping) -> "RegimeBudgets":
        return cls(*keyed(number, "latency", "switching_cost", "complexity")(data))


@dataclass(frozen=True)
class Regime:
    """A deployment condition class.  ``entry`` is a DNF over regime
    signals; an empty DNF marks the default regime, which always matches."""

    label: str
    weights: EvaluatorWeights
    budgets: RegimeBudgets
    entry: tuple[tuple[SignalCondition, ...], ...] = ()

    def __post_init__(self) -> None:
        refuse_faults(self.entry)

    def matches(self, signals: Mapping[str, float]) -> bool:
        return not self.entry or some_clause_holds(self.entry, signals)

    def is_default(self) -> bool:
        return not self.entry

    def to_data(self) -> dict:
        return {
            "label": self.label,
            "weights": self.weights.to_data(),
            "budgets": self.budgets.to_data(),
            "entry": [[c.to_data() for c in clause] for clause in self.entry],
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "Regime":
        r = Fields(data)
        label, weights = r.get("label", text), r.get("weights", EvaluatorWeights.from_data)
        budgets, entry = r.get("budgets", RegimeBudgets.from_data), r.get("entry", array(array(declared_condition)), ())
        return r.build(cls, label, weights, budgets, entry)


def detect_regime(family: Sequence[Regime], z: SemanticState) -> Regime:
    """First regime whose entry predicate holds; ties break by declaration
    order.  Raises ConfigError when nothing matches and no default exists."""
    if not family:
        raise ConfigError("regime family is empty")
    signals = z.signals()
    for regime in family:
        if regime.matches(signals):
            return regime
    raise ConfigError("no regime matched and no default regime is declared")


# ---------------------------------------------------------------------------
# Identity functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentitySpec:
    """Weights of the four preservation sub-scores plus the certified
    threshold eta.  Threshold comparisons are inclusive."""

    request_class_weight: float
    outputs_weight: float
    safety_weight: float
    interactions_weight: float
    threshold: float

    def __post_init__(self) -> None:
        weights = self.to_data()["weights"]
        negative = [name for name, weight in weights.items() if not weight >= 0]
        if negative:
            raise ConfigError(f"identity sub-score weights must be nonnegative: {', '.join(negative)}")
        total = (
            self.request_class_weight
            + self.outputs_weight
            + self.safety_weight
            + self.interactions_weight
        )
        if not abs(total - 1.0) <= 1e-9:
            raise ConfigError(f"identity sub-score weights must sum to 1, got {total}")
        if not (0.0 < self.threshold <= 1.0):
            raise ConfigError("identity threshold must lie in (0, 1]")

    def to_data(self) -> dict:
        return {
            "weights": {
                "request_class": self.request_class_weight,
                "outputs": self.outputs_weight,
                "safety": self.safety_weight,
                "interactions": self.interactions_weight,
            },
            "threshold": self.threshold,
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "IdentitySpec":
        r = Fields(data)
        weights = r.get("weights", keyed(number, "request_class", "outputs", "safety", "interactions"))
        return r.build(cls, *(weights or ()), r.get("threshold", number))

    def admits(self, score: float) -> bool:
        """``score`` reaches the threshold (inclusive, within ``BOUND_EPS``)."""
        return score >= self.threshold - BOUND_EPS


def provider_mask(h: Hypothesis, schema: OntologySchema) -> int:
    """Closure mask of every function some assigned component provides
    (up to refinement): the OR of the components' cached masks."""
    mask = 0
    for _, comp in h.assignment:
        mask |= schema.cached_mask(comp.provides)
    return mask


def _covered(provided: int, wanted: frozenset[ConceptId], schema: OntologySchema) -> frozenset[ConceptId]:
    """Subset of ``wanted`` functions in ``provided``, a hypothesis's
    ``provider_mask``."""
    return frozenset(f for f in wanted if schema.mask_covers(provided, f))


def _preserved_fraction(before: frozenset, after: frozenset) -> float:
    if not before:
        return 1.0
    return len(before & after) / len(before)


class Commitments(NamedTuple):
    """What a configuration commits to under a semantic state: the required
    and output functions it covers, its ``safety.*`` bounds and its
    propagated obligations.  ``provided`` is the provider mask that the
    covered functions were read from (0 for the commitments that a
    semantic state records)."""

    required: frozenset[ConceptId]
    outputs: frozenset[ConceptId]
    safety: Mapping[str, float]
    obligations: frozenset[ConceptId]
    provided: int = 0


def commitments_of(h: Hypothesis, z: SemanticState, schema: OntologySchema) -> Commitments:
    """What ``h`` commits to under ``z``, read from one provider mask.  The
    engine builds them only in ``certify``'s step and candidate facts; every
    measure below reads them and never builds them.  They read only ``h``
    and the required and output functions of ``z``, so they are kept in
    ``schema.memo`` under those, and one value (``safety`` read-only) is
    shared by every reader that meets the key."""
    key = ("commitments", h.digest(), z.required_functions, z.output_functions)
    return schema.remembered(key, _commitments, h, z.required_functions, z.output_functions, schema)


def _commitments(h: Hypothesis, required: frozenset, outputs: frozenset, schema: OntologySchema) -> Commitments:
    provided = provider_mask(h, schema)
    return Commitments(
        _covered(provided, required, schema),
        _covered(provided, outputs, schema),
        MappingProxyType({n: b for n, b in h.constraints if n.startswith(SAFETY_CONSTRAINT_PREFIX)}),
        h.propagated_obligations(),
        provided,
    )


class IdentityBreakdown(NamedTuple):
    request_class: float
    outputs: float
    safety: float
    interactions: float
    total: float

    def to_data(self) -> dict:
        return {
            "request_class": self.request_class,
            "outputs": self.outputs,
            "safety": self.safety,
            "interactions": self.interactions,
            "total": self.total,
        }


def _identity(
    spec: IdentitySpec, before: Commitments, after: Commitments
) -> tuple[float, float, float, float, float]:
    """How much of the ``before`` commitments ``after`` keeps: the share of
    covered functions and obligations kept, and of safety bounds kept at
    least as tight, then the total that weighs the four shares."""
    s_request = _preserved_fraction(before.required, after.required)
    s_outputs = _preserved_fraction(before.outputs, after.outputs)
    if before.safety:
        kept = sum(
            1
            for name, bound in before.safety.items()
            if name in after.safety and after.safety[name] <= bound
        )
        s_safety = kept / len(before.safety)
    else:
        s_safety = 1.0
    s_interactions = _preserved_fraction(before.obligations, after.obligations)
    total = (
        spec.request_class_weight * s_request
        + spec.outputs_weight * s_outputs
        + spec.safety_weight * s_safety
        + spec.interactions_weight * s_interactions
    )
    return s_request, s_outputs, s_safety, s_interactions, total


def identity_breakdown(spec: IdentitySpec, before: Commitments, after: Commitments) -> IdentityBreakdown:
    """The four preservation sub-scores of the ``after`` commitments against
    the ``before`` ones, and their weighted total."""
    return IdentityBreakdown(*_identity(spec, before, after))


def identity_score(
    spec: IdentitySpec,
    before: Hypothesis,
    after: Hypothesis,
    z: SemanticState,
    schema: OntologySchema,
) -> float:
    """Weighted mean of the four preservation sub-scores of ``after``
    against ``before`` under ``z``; always 1.0 when after equals before.
    It builds both sides' commitments itself, for a caller that holds no
    candidate facts."""
    return identity_breakdown(spec, commitments_of(before, z, schema), commitments_of(after, z, schema)).total


def absolute_identity(spec: IdentitySpec, z: SemanticState, commitments: Commitments) -> float:
    """Identity of a single hypothesis, given by its ``commitments`` under
    ``z``, against the commitments recorded in the semantic state: its
    required and output functions and its pending obligations.  The state
    records no safety bounds (hard safety is carried by the core's
    predicates), so that sub-score counts full."""
    recorded = Commitments(z.required_functions, z.output_functions, {}, z.pending_obligations())
    return _identity(spec, recorded, commitments)[-1]


# ---------------------------------------------------------------------------
# Hard safety predicates and the invariant core
# ---------------------------------------------------------------------------

#: A check of ``h`` under ``z``; it reads the provider mask and the
#: propagated obligations of ``h`` from its commitments.
PredicateFn = Callable[[Hypothesis, SemanticState, OntologySchema, Commitments], bool]


def _pred_obligations_honored(params: Mapping) -> PredicateFn:
    keyed(anything)(params)

    def check(h: Hypothesis, z: SemanticState, schema: OntologySchema, commitments: Commitments) -> bool:
        return z.pending_obligations() <= commitments.obligations

    return check


def _pred_components_live(params: Mapping) -> PredicateFn:
    keyed(anything)(params)

    def check(h: Hypothesis, z: SemanticState, schema: OntologySchema, commitments: Commitments) -> bool:
        live = z.live_component_ids()
        return all(comp.component_id in live for _, comp in h.assignment)

    return check


def _pred_flag_absent(params: Mapping) -> PredicateFn:
    (flag,) = keyed(text, "flag")(params)

    def check(h: Hypothesis, z: SemanticState, schema: OntologySchema, commitments: Commitments) -> bool:
        return flag not in z.safety_flags

    return check


def _pred_flag_requires_function(params: Mapping) -> PredicateFn:
    r = Fields(params)
    flag, function = r.build(tuple, (r.get("flag", text), r.get("function", concept)))

    def check(h: Hypothesis, z: SemanticState, schema: OntologySchema, commitments: Commitments) -> bool:
        if flag not in z.safety_flags:
            return True
        return schema.mask_covers(commitments.provided, function)

    return check


PREDICATE_KINDS: dict[str, Callable[[Mapping], PredicateFn]] = {
    "obligations-honored": _pred_obligations_honored,
    "components-live": _pred_components_live,
    "flag-absent": _pred_flag_absent,
    "flag-requires-function": _pred_flag_requires_function,
}


@dataclass(frozen=True)
class SafetyPredicate:
    """A named hard safety check.  Its parameters are validated and its
    check function built once, when the predicate is constructed."""

    name: str
    kind: str
    params: tuple[tuple[str, object], ...] = ()
    _check: PredicateFn = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in PREDICATE_KINDS:
            raise ConfigError(f"unknown safety predicate kind {self.kind!r}")
        try:
            check = read(ConfigError, "params", PREDICATE_KINDS[self.kind], dict(self.params))
        except ConfigError as exc:
            raise ConfigError(f"safety predicate {self.name!r}: {exc}") from exc
        object.__setattr__(self, "_check", check)

    def check(self, h: Hypothesis, z: SemanticState, schema: OntologySchema, commitments: Commitments) -> bool:
        """The predicate on ``h`` under ``z``, whose ``commitments`` are
        ``commitments_of(h, z, schema)``."""
        return self._check(h, z, schema, commitments)

    def to_data(self) -> dict:
        return {"name": self.name, "kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_data(cls, data: Mapping) -> "SafetyPredicate":
        r = Fields(data)
        kind = r.get("kind", text)
        return r.build(cls, r.get("name", text, kind), kind, r.get("params", mapping(anything, sorted_items), ()))


@dataclass(frozen=True)
class InvariantCore:
    """The protected commitments: identity spec plus hard safety predicates.

    ``include_identity`` wires the identity functional into the core; when
    off, identity is still reported but no longer gates, which reproduces
    the identity-drift failure mode."""

    identity: IdentitySpec
    predicates: tuple[SafetyPredicate, ...]
    include_identity: bool = True

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ConfigError("invariant core needs at least one hard safety predicate")
        names = [p.name for p in self.predicates]
        if len(names) != len(set(names)):
            raise ConfigError("safety predicate names must be unique")

    def to_data(self) -> dict:
        return {
            "identity": self.identity.to_data(),
            "predicates": [p.to_data() for p in self.predicates],
            "include_identity": self.include_identity,
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "InvariantCore":
        r = Fields(data)
        identity = r.get("identity", IdentitySpec.from_data)
        predicates = r.get("predicates", array(SafetyPredicate.from_data))
        return r.build(cls, identity, predicates, r.get("include_identity", boolean, cls.include_identity))

    def identity_holds(self, score: float) -> bool:
        """Identity ``score`` reaches the threshold, or identity does not gate."""
        return not self.include_identity or self.identity.admits(score)


class CoreReport(NamedTuple):
    value: float
    passed: bool
    identity_value: float
    predicate_results: tuple[tuple[str, bool], ...]

    def to_data(self) -> dict:
        return {
            "value": self.value,
            "passed": self.passed,
            "identity": self.identity_value,
            "predicates": {n: ok for n, ok in self.predicate_results},
        }


def core_value(
    core: InvariantCore, h: Hypothesis, z: SemanticState, schema: OntologySchema, commitments: Commitments
) -> CoreReport:
    """Evaluate the invariant core on a single hypothesis, whose
    ``commitments`` are ``commitments_of(h, z, schema)``; every predicate
    and ``absolute_identity`` read them.

    value = identity term + hard-safety term (1 when every predicate holds,
    else 0).  The report fails on any predicate failure, and on identity
    below threshold when identity is part of the core; the threshold
    comparison is inclusive.

    The report reads ``core``, ``h`` and of ``z`` only its required and
    output functions, pending obligations, live components and safety
    flags, so it is kept in ``schema.memo`` under those."""
    parts = z.required_functions, z.output_functions, z.pending_obligations(), z.live_component_ids(), z.safety_flags
    return schema.remembered(("core", core, h.digest(), *parts), _core_value, core, h, z, schema, commitments)


def _core_value(
    core: InvariantCore, h: Hypothesis, z: SemanticState, schema: OntologySchema, commitments: Commitments
) -> CoreReport:
    results = tuple((p.name, p.check(h, z, schema, commitments)) for p in core.predicates)
    all_safe = all(ok for _, ok in results)
    ident = absolute_identity(core.identity, z, commitments)
    value = ident + (1.0 if all_safe else 0.0)
    passed = all_safe and core.identity_holds(ident)
    return CoreReport(value=value, passed=passed, identity_value=ident, predicate_results=results)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------


class ScoreBreakdown(NamedTuple):
    j_task: float
    j_safety: float
    j_semantic: float
    j_cost: float
    j_reuse: float
    weights: EvaluatorWeights

    @property
    def total(self) -> float:
        w = self.weights
        return (
            w.task * self.j_task
            + w.safety * self.j_safety
            + w.semantic * self.j_semantic
            + w.cost * self.j_cost
            + w.reuse * self.j_reuse
        )

    def to_data(self) -> dict:
        return {
            "task": self.j_task,
            "safety": self.j_safety,
            "semantic": self.j_semantic,
            "cost": self.j_cost,
            "reuse": self.j_reuse,
            "total": self.total,
        }


def evaluate(
    e: Regime,
    h: Hypothesis,
    z: SemanticState,
    reuse_term: float,
    soundness: SoundnessReport,
    switching_cost: float = 0.0,
) -> ScoreBreakdown:
    """Score a hypothesis under a regime; the total is exactly the weighted
    sum of the five component scores.

    Pipeline latency is the sum of the policy rules' latency annotations,
    divided by the hypothesis's ``speed`` constraint when one is declared
    (an execution-rate factor, so degrading speed stretches the pipeline);
    a latency past the largest float is infinite, and scores 0.
    ``soundness`` is ``type_soundness`` of ``h`` and grades the semantic
    score.  The reuse term comes from the memory module (0 when
    memoryless) and is clamped to [-1, 1] before weighting.  ``switching_cost`` is the
    stability charge of reaching ``h`` and feeds the cost score."""
    total = sum(rule.latency for rule in h.policy)
    latency = float(total) if total <= sys.float_info.max else math.inf
    speed = _named(h.constraints, "speed", 1.0)
    if speed > 0:
        latency = latency / speed
    deadline = _named(z.regime_signals, "deadline", 0.0)
    effective = min(deadline, e.budgets.latency)
    j_task = _clamp((effective - latency) / (effective + 1.0))

    j_safety = 1.0 / (1.0 + len(z.safety_flags))

    if soundness.sound:
        j_semantic = 1.0
    else:
        j_semantic = max(0.0, 0.5 - 0.1 * len(soundness.violations))

    size_term = 0.01 * (len(h.roles) + len(h.edges))
    j_cost = _clamp(1.0 - switching_cost / e.budgets.switching_cost - size_term)

    j_reuse = _clamp(reuse_term, -1.0, 1.0)
    return ScoreBreakdown(j_task, j_safety, j_semantic, j_cost, j_reuse, e.weights)


# ---------------------------------------------------------------------------
# Structural prior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralPrior:
    node_weight: float = 1.0
    edge_weight: float = 0.5
    rule_weight: float = 0.25
    constraint_weight: float = 0.25
    preferred: tuple[tuple[str, float], ...] = ()  # digest -> bonus

    def __post_init__(self) -> None:
        weights = (self.node_weight, self.edge_weight, self.rule_weight, self.constraint_weight)
        if not all(weight > 0 for weight in weights):
            raise ConfigError("complexity weights must be positive")
        cap = min(weights)
        for digest, bonus in self.preferred:
            if not 0 <= bonus < cap:
                raise ConfigError(
                    f"preferred-structure bonus for {digest[:12]} must lie in [0, {cap}) "
                    "to keep complexity strictly increasing under growth"
                )

    def to_data(self) -> dict:
        return {
            "node": self.node_weight,
            "edge": self.edge_weight,
            "rule": self.rule_weight,
            "constraint": self.constraint_weight,
            "preferred": {d: b for d, b in self.preferred},
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "StructuralPrior":
        r = Fields(data)
        node, edge = r.get("node", number, cls.node_weight), r.get("edge", number, cls.edge_weight)
        rule, constraint = r.get("rule", number, cls.rule_weight), r.get("constraint", number, cls.constraint_weight)
        return r.build(cls, node, edge, rule, constraint, r.get("preferred", mapping(number, sorted_items), ()))


def prior_complexity(prior: StructuralPrior, h: Hypothesis) -> float:
    """Weighted motif count minus any preferred-structure bonus, clamped at
    zero.  Strictly increasing in node count; monotone under subgraphs.
    Raises ConfigError, naming the heaviest weight, when the count
    overflows a float."""
    raw = (
        prior.node_weight * len(h.roles)
        + prior.edge_weight * len(h.edges)
        + prior.rule_weight * len(h.policy)
        + prior.constraint_weight * len(h.constraints)
    )
    if raw == math.inf:  # each weight is finite, but their weighted counts can overflow
        counts = {"node": len(h.roles), "edge": len(h.edges), "rule": len(h.policy), "constraint": len(h.constraints)}
        key = max(counts, key=lambda k: getattr(prior, f"{k}_weight") * counts[k])
        weight, count = getattr(prior, f"{key}_weight"), counts[key]
        raise ConfigError(f"configuration section 'prior': key {key!r} ({weight:g}) times {count} overflows a float")
    bonus = dict(prior.preferred).get(h.digest(), 0.0)
    return max(0.0, raw - bonus)
