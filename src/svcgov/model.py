"""Semantic states, service-graph hypotheses, and typing checks.

A hypothesis is a service realization: a DAG of subservice roles, an
assignment of components to roles, an ordered orchestration policy of
guarded rules, and a set of named constraint bounds.  The typed hypothesis
space is exactly the set of hypotheses that ``type_soundness`` accepts
against a schema.

All types here are immutable values normalized at construction (sorted
roles, edges, bindings, constraints), so structural equality and content
digests are stable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping, Sequence

from .canon import canonical_dumps, canonical_object, digest_of, sha256_hex
from .errors import ConfigError, TypingError
from .fields import (
    Fields, array, boolean, concept, concepts, distinct, finite, first_of, float_integer, integer, mapping, number,
    one_of, row, text,
)
from .ontology import (
    AssertionBase,
    Category,
    ConceptId,
    OntologySchema,
    kind_matches,
)

#: Regime-signal vocabulary produced by the semantic lift.  Policy guards,
#: regime entry predicates, and grammar triggers may reference these names
#: and no others.
SIGNAL_NAMES = (
    "bandwidth",
    "battery_margin",
    "congestion",
    "deadline",
    "deadline_pressure",
    "health_margin",
    "noise",
    "user_priority",
)

#: Each guard operator's comparison of the signal (left) with the bound.
_COMPARISONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt, "==": operator.eq}
GUARD_OPS = tuple(_COMPARISONS)

#: Environment descriptor concepts with these local names (or refinements
#: of them) drive the noise/congestion signals for zones occupied by
#: available agents.
NOISY_LOCAL_NAME = "NoisyZone"
CONGESTED_LOCAL_NAME = "CongestedZone"

#: The health a platform component may report.
HEALTH = ("ok", "degraded", "failed")


# ---------------------------------------------------------------------------
# Raw platform state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentState:
    agent_id: str
    concept: ConceptId
    available: bool
    battery: float  # fraction in [0, 1]
    zone: str


@dataclass(frozen=True)
class ComponentState:
    component_id: str
    concept: ConceptId
    health: str  # one of HEALTH


_PLAIN = first_of("a string, a boolean or a finite number", text, boolean, finite)

#: A request parameter's value: a string, a boolean or a finite number (an
#: integer stays an integer), or a ``[value, unit]`` pair of one of these
#: and a string, read as a tuple so that the request hashes.
_PARAM = first_of(
    "a string, a boolean, a finite number or a [value, unit] pair of one of these and a string",
    _PLAIN,
    row(_PLAIN, text),
)


@dataclass(frozen=True)
class ServiceRequest:
    request_class: ConceptId
    params: tuple[tuple[str, object], ...]  # sorted by name
    deadline: int

    @classmethod
    def build(cls, request_class: ConceptId, params: Mapping[str, object], deadline: int) -> "ServiceRequest":
        return cls(request_class, tuple(sorted(params.items())), deadline)

    @classmethod
    def from_data(cls, data: Mapping) -> "ServiceRequest":
        r = Fields(data)
        params = r.get("params", mapping(_PARAM), {})
        return r.build(cls.build, r.get("class", concept), params, r.get("deadline", float_integer, 0))


@dataclass(frozen=True)
class RawPlatformState:
    time: int
    agents: tuple[AgentState, ...]
    components: tuple[ComponentState, ...]
    request: ServiceRequest
    network: tuple[tuple[str, float], ...]  # (zone, bandwidth), sorted
    safety_flags: frozenset[str]
    environment_facts: tuple[tuple[str, tuple[ConceptId, ...]], ...]  # zone -> descriptors

    def network_map(self) -> dict[str, float]:
        return dict(self.network)

    def environment_map(self) -> dict[str, tuple[ConceptId, ...]]:
        return dict(self.environment_facts)

    def to_data(self) -> dict:
        return {
            "time": self.time,
            "agents": [
                [a.agent_id, str(a.concept), a.available, a.battery, a.zone] for a in self.agents
            ],
            "components": [[c.component_id, str(c.concept), c.health] for c in self.components],
            "request": {
                "class": str(self.request.request_class),
                "params": {n: v for n, v in self.request.params},
                "deadline": self.request.deadline,
            },
            "network": {z: b for z, b in self.network},
            "safety_flags": sorted(self.safety_flags),
            "environment": {z: [str(d) for d in ds] for z, ds in self.environment_facts},
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "RawPlatformState":
        r = Fields(data)
        agent = row(text, concept, boolean, number, text, into=AgentState)
        component = row(text, concept, one_of(*HEALTH), into=ComponentState)
        agents = r.get("agents", distinct(array(agent), 0), ())
        components = r.get("components", distinct(array(component), 0), ())
        time, request = r.get("time", integer, 0), r.get("request", ServiceRequest.from_data)
        network, flags = r.get("network", mapping(number), {}), r.get("safety_flags", array(text), ())
        environment = r.get("environment", mapping(array(concept)), {})
        return r.build(build_raw_state, time, agents, components, request, network, flags, environment)


def build_raw_state(
    time: int,
    agents: Iterable[AgentState],
    components: Iterable[ComponentState],
    request: ServiceRequest,
    network: Mapping[str, float],
    safety_flags: Iterable[str],
    environment: Mapping[str, Sequence[ConceptId]],
) -> RawPlatformState:
    return RawPlatformState(
        time=time,
        agents=tuple(sorted(agents, key=lambda a: a.agent_id)),
        components=tuple(sorted(components, key=lambda c: c.component_id)),
        request=request,
        network=tuple(sorted((z, float(b)) for z, b in network.items())),
        safety_flags=frozenset(safety_flags),
        environment_facts=tuple(
            sorted((z, tuple(sorted(ds))) for z, ds in environment.items())
        ),
    )


# ---------------------------------------------------------------------------
# Semantic state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractionState:
    phase: str
    pending_obligations: tuple[ConceptId, ...]  # sorted


@dataclass(frozen=True)
class SemanticState:
    """Ontology-grounded lift of a raw platform state.

    ``required_functions`` and ``output_functions`` are the request-class
    commitments read from the assertion base (``requires`` and ``executes``
    facts of request individuals); they anchor identity scoring.
    """

    request_class: ConceptId
    request_params: tuple[tuple[str, object], ...]
    available_agents: frozenset[tuple[str, ConceptId]]
    component_functions: frozenset[tuple[str, ConceptId]]
    interaction_state: InteractionState
    environment_descriptors: tuple[tuple[str, frozenset[ConceptId]], ...]
    regime_signals: tuple[tuple[str, float], ...]
    safety_flags: frozenset[str]
    required_functions: frozenset[ConceptId]
    output_functions: frozenset[ConceptId]
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)
    # computed on first use and kept, as the digest is; not fields, so they
    # take no part in equality, hashing, repr or the serialized value
    _live = None
    _pending = None

    def signals(self) -> dict[str, float]:
        return dict(self.regime_signals)

    def live_component_ids(self) -> frozenset[str]:
        if self._live is None:
            object.__setattr__(self, "_live", frozenset(cid for cid, _ in self.component_functions))
        return self._live

    def pending_obligations(self) -> frozenset[ConceptId]:
        """The pending obligations of the interaction state, as a set."""
        if self._pending is None:
            object.__setattr__(self, "_pending", frozenset(self.interaction_state.pending_obligations))
        return self._pending

    def to_data(self) -> dict:
        return {
            "request_class": str(self.request_class),
            "request_params": {n: v for n, v in self.request_params},
            "available_agents": [[a, str(c)] for a, c in sorted(self.available_agents)],
            "component_functions": [[i, str(f)] for i, f in sorted(self.component_functions)],
            "interaction": {
                "phase": self.interaction_state.phase,
                "pending": [str(o) for o in self.interaction_state.pending_obligations],
            },
            "environment": {z: [str(d) for d in sorted(ds)] for z, ds in self.environment_descriptors},
            "signals": {n: v for n, v in self.regime_signals},
            "safety_flags": sorted(self.safety_flags),
            "required_functions": [str(f) for f in sorted(self.required_functions)],
            "output_functions": [str(f) for f in sorted(self.output_functions)],
        }

    def digest(self) -> str:
        """Content digest of ``to_data()``, computed on first use; the
        instance is immutable, so it never goes stale."""
        if self._digest is None:
            object.__setattr__(self, "_digest", digest_of(self.to_data()))
        return self._digest


def semantic_lift(
    x: RawPlatformState,
    schema: OntologySchema,
    k: AssertionBase,
    requests: dict[ConceptId, tuple[frozenset, frozenset, tuple]] | None = None,
) -> SemanticState:
    """Lift a raw platform state to a typed semantic state.

    Deterministic and total on well-formed raw states; raises TypingError
    naming the first untypable raw fact.  The request part (what ``k``
    commits a request of the state's class to) depends on nothing else
    of ``x``; ``requests``, when given, keeps it per request class for
    later lifts on the same schema and assertion base.
    """
    if not (0 <= x.request.deadline):
        raise TypingError("request deadline must be nonnegative")
    if not schema.declares(x.request.request_class):
        raise TypingError(f"unknown request class {x.request.request_class}")
    if schema.category(x.request.request_class) is not Category.SERVICE:
        raise TypingError(f"request class {x.request.request_class} is not a Service concept")

    decls = schema.params_for(x.request.request_class)
    typed_params: list[tuple[str, object]] = []
    for name, value in x.request.params:
        decl = decls.get(name)
        if decl is None:
            raise TypingError(f"request parameter {name!r} undeclared for {x.request.request_class}")
        plain, unit = _split_unit(value)
        if unit != decl.unit:
            raise TypingError(f"request parameter {name!r} unit mismatch: {unit!r} vs declared {decl.unit!r}")
        if not kind_matches(decl.kind, plain):
            raise TypingError(f"request parameter {name!r} value {plain!r} is not a {decl.kind}")
        typed_params.append((name, plain))

    env_map = x.environment_map()
    for agent in x.agents:
        if not schema.declares(agent.concept):
            raise TypingError(f"unknown agent concept {agent.concept} (agent {agent.agent_id})")
        if schema.category(agent.concept) is not Category.AGENT:
            raise TypingError(f"agent {agent.agent_id} typed by non-Agent concept {agent.concept}")
        if not (0.0 <= agent.battery <= 1.0):
            raise TypingError(f"agent {agent.agent_id} battery {agent.battery} outside [0, 1]")
        if agent.zone not in env_map:
            raise TypingError(f"agent {agent.agent_id} placed in unknown zone {agent.zone!r}")

    for comp in x.components:
        if not schema.declares(comp.concept):
            raise TypingError(f"unknown component concept {comp.concept} (component {comp.component_id})")
        if comp.health not in HEALTH:
            raise TypingError(f"component {comp.component_id} has unknown health {comp.health!r}")

    for zone, bandwidth in x.network:
        if not (0.0 <= bandwidth <= 1.0):
            raise TypingError(f"zone {zone!r} bandwidth {bandwidth} outside [0, 1]")

    descriptors: list[tuple[str, frozenset[ConceptId]]] = []
    for zone, ds in x.environment_facts:
        for d in ds:
            if not schema.declares(d):
                raise TypingError(f"unknown environment descriptor {d} in zone {zone!r}")
            if schema.category(d) is not Category.ENVIRONMENT:
                raise TypingError(f"descriptor {d} in zone {zone!r} is not an Environment concept")
        descriptors.append((zone, frozenset(ds)))

    provides = k.facts_named("providesFunction")
    live = {c.component_id for c in x.components if c.health != "failed"}
    component_functions: set[tuple[str, ConceptId]] = set()
    for _, subject, obj in provides:
        if subject not in live:
            continue
        fn_concept = k.individuals.get(obj)
        if fn_concept is None or not schema.declares(fn_concept):
            raise TypingError(f"providesFunction({subject}, {obj}) targets untypable individual")
        component_functions.add((subject, fn_concept))

    if requests is None:
        requests = {}
    request = requests.get(x.request.request_class)
    if request is None:
        request = requests[x.request.request_class] = _request_part(x.request.request_class, schema, k)
    required, outputs, pending = request

    available = frozenset((a.agent_id, a.concept) for a in x.agents if a.available)
    signals = _lift_signals(x, schema, typed_params)

    return SemanticState(
        request_class=x.request.request_class,
        request_params=tuple(sorted(typed_params)),
        available_agents=available,
        component_functions=frozenset(component_functions),
        interaction_state=InteractionState(
            phase=phase(x.time),
            pending_obligations=pending,
        ),
        environment_descriptors=tuple(sorted(descriptors)),
        regime_signals=tuple(sorted(signals.items())),
        safety_flags=x.safety_flags,
        required_functions=required,
        output_functions=outputs,
    )


def phase(time: int) -> str:
    """The interaction phase at ``time``: all that the lift reads of it."""
    return "requested" if time == 0 else "active"


def _request_part(
    request_class: ConceptId, schema: OntologySchema, k: AssertionBase
) -> tuple[frozenset[ConceptId], frozenset[ConceptId], tuple[ConceptId, ...]]:
    """The functions that a request of ``request_class`` requires, the
    outputs it executes and the obligations it leaves pending (sorted),
    read from the individuals of ``k`` whose concept refines the request
    class."""
    request_individuals = sorted(
        ind for ind, concept in k.individuals.items() if schema.covers((concept,), request_class)
    )
    required = _request_commitments(request_individuals, "requires", schema, k)
    outputs = _request_commitments(request_individuals, "executes", schema, k)
    pending = _request_commitments(request_individuals, "notifies", schema, k)
    for ob in pending:
        if schema.category(ob) is not Category.INTERACTION:
            raise TypingError(f"pending obligation {ob} is not an Interaction concept")
    return required, outputs, tuple(sorted(pending))


def _request_commitments(
    request_individuals: Sequence[str], relation: str, schema: OntologySchema, k: AssertionBase
) -> frozenset[ConceptId]:
    out: set[ConceptId] = set()
    subjects = set(request_individuals)
    for _, subj, obj in k.facts_named(relation):
        if subj in subjects:
            concept = k.individuals.get(obj)
            if concept is None or not schema.declares(concept):
                raise TypingError(f"{relation}({subj}, {obj}) targets untypable individual")
            out.add(concept)
    return frozenset(out)


def _split_unit(value: object) -> tuple[object, str]:
    if isinstance(value, (list, tuple)) and len(value) == 2 and isinstance(value[1], str):
        return value[0], value[1]
    return value, ""


def _lift_signals(
    x: RawPlatformState, schema: OntologySchema, typed_params: Sequence[tuple[str, object]]
) -> dict[str, float]:
    env_map = x.environment_map()
    available = [a for a in x.agents if a.available]
    network = x.network_map()

    deadline = float(x.request.deadline)
    batteries = [a.battery for a in available]
    occupied = sorted({a.zone for a in available})
    bandwidths = [network.get(z, 1.0) for z in occupied]
    healthy = [c for c in x.components if c.health == "ok"]

    noise = _zone_signal(occupied, env_map, schema, NOISY_LOCAL_NAME)
    congestion = _zone_signal(occupied, env_map, schema, CONGESTED_LOCAL_NAME)

    priority = 0.0
    for name, value in typed_params:
        if name == "priority" and kind_matches("number", value):
            priority = float(value)

    return {
        "bandwidth": min(bandwidths) if bandwidths else 1.0,
        "battery_margin": min(batteries) if batteries else 1.0,
        "congestion": congestion,
        "deadline": deadline,
        "deadline_pressure": 1.0 / (1.0 + deadline),
        "health_margin": (len(healthy) / len(x.components)) if x.components else 1.0,
        "noise": noise,
        "user_priority": priority,
    }


def _zone_signal(
    zones: Sequence[str],
    env_map: Mapping[str, tuple[ConceptId, ...]],
    schema: OntologySchema,
    sentinel_local_name: str,
) -> float:
    """1.0 when any occupied zone carries a descriptor refining a sentinel
    Environment concept (matched by local name), else 0.0."""
    sentinels = schema.named_mask(Category.ENVIRONMENT, sentinel_local_name)
    descriptors = schema.closure_mask(d for zone in zones for d in env_map.get(zone, ()))
    return 1.0 if descriptors & sentinels else 0.0


# ---------------------------------------------------------------------------
# Hypotheses
# ---------------------------------------------------------------------------


class _Element:
    """Base of the hypothesis elements (role, component, edge and policy
    rule): keeps the element's canonical text once computed, from which
    ``Hypothesis.digest`` and transformation keys are composed.  The
    instance is immutable, so the text never goes stale; it is not a
    dataclass field, so it takes no part in equality, hashing or repr."""

    _text: str | None = None

    def canonical_text(self) -> str:
        """``canonical_dumps(self.to_data())``, computed on first use."""
        if self._text is None:
            object.__setattr__(self, "_text", canonical_dumps(self.to_data()))
        return self._text


@dataclass(frozen=True)
class Component(_Element):
    """A deployable component: its own concept plus the functions it provides."""

    component_id: str
    concept: ConceptId
    provides: frozenset[ConceptId]

    def to_data(self) -> dict:
        return {
            "component": self.component_id,
            "concept": str(self.concept),
            "provides": [str(f) for f in sorted(self.provides)],
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "Component":
        r = Fields(data)
        provides = r.get("provides", concepts, frozenset())
        return r.build(cls, r.get("component", text), r.get("concept", concept), provides)


@dataclass(frozen=True)
class Role(_Element):
    role_id: str
    requires: frozenset[ConceptId]

    def to_data(self) -> dict:
        return {"id": self.role_id, "requires": [str(f) for f in sorted(self.requires)]}

    @classmethod
    def from_data(cls, data: Mapping) -> "Role":
        r = Fields(data)
        return r.build(cls, r.get("id", text), r.get("requires", concepts, frozenset()))


@dataclass(frozen=True)
class InterfaceContract:
    entity_types: frozenset[ConceptId]
    event_types: frozenset[ConceptId]
    obligations: frozenset[ConceptId]

    def to_data(self) -> dict:
        return {
            "entities": [str(c) for c in sorted(self.entity_types)],
            "events": [str(c) for c in sorted(self.event_types)],
            "obligations": [str(c) for c in sorted(self.obligations)],
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "InterfaceContract":
        r = Fields(data)
        return r.build(cls, *(r.get(key, concepts, frozenset()) for key in ("entities", "events", "obligations")))


@dataclass(frozen=True)
class Edge(_Element):
    from_role: str
    to_role: str
    contract: InterfaceContract

    def to_data(self) -> dict:
        return {"from": self.from_role, "to": self.to_role, "contract": self.contract.to_data()}

    @classmethod
    def from_data(cls, data: Mapping) -> "Edge":
        r = Fields(data)
        return r.build(cls, r.get("from", text), r.get("to", text), r.get("contract", InterfaceContract.from_data))


@dataclass(frozen=True)
class SignalCondition:
    signal: str
    op: str  # one of GUARD_OPS
    value: float

    def holds(self, signals: Mapping[str, float]) -> bool:
        return _COMPARISONS[self.op](float(signals.get(self.signal, 0.0)), self.value)

    def to_data(self) -> dict:
        return {"signal": self.signal, "op": self.op, "value": self.value}

    @classmethod
    def from_data(cls, data: Mapping) -> "SignalCondition":
        r = Fields(data)
        return r.build(cls, r.get("signal", text), r.get("op", text), r.get("value", number))

    def faults(self) -> list[str]:
        """Why the condition cannot be evaluated: an unknown signal or operator."""
        names = (("signal", self.signal, SIGNAL_NAMES), ("operator", self.op, GUARD_OPS))
        return [f"unknown {what} {name!r}" for what, name, known in names if name not in known]


def declared_condition(data: Mapping) -> SignalCondition:
    """A regime-entry or grammar-trigger condition, whose signal and operator exist."""
    cond = SignalCondition.from_data(data)
    if faults := cond.faults():
        raise ConfigError("; ".join(faults))
    return cond


def refuse_faults(clauses: Sequence[Sequence[SignalCondition]]) -> None:
    """Raise ConfigError when a condition of the DNF ``clauses`` (a regime's
    entry, a variant's triggers) cannot be evaluated."""
    if faults := [fault for clause in clauses for c in clause for fault in c.faults()]:
        raise ConfigError("; ".join(faults))


def conditions_hold(conditions: Sequence[SignalCondition], signals: Mapping[str, float]) -> bool:
    for c in conditions:
        if not c.holds(signals):
            return False
    return True


def some_clause_holds(clauses: Sequence[Sequence[SignalCondition]], signals: Mapping[str, float]) -> bool:
    """Whether a DNF of signal conditions (a regime's entry, a variant's
    triggers) holds: some clause holds entirely."""
    for clause in clauses:
        if conditions_hold(clause, signals):
            return True
    return False


@dataclass(frozen=True)
class PolicyRule(_Element):
    """One guarded orchestration step: when the guard holds on the regime
    signals, ``actor_role`` performs ``relation`` on ``action_concept``.
    ``latency`` is the step's contribution to pipeline latency, in ticks."""

    guard: tuple[SignalCondition, ...]
    relation: str  # executes | notifies
    actor_role: str
    action_concept: ConceptId
    latency: int = 0

    def to_data(self) -> dict:
        return {
            "guard": [c.to_data() for c in self.guard],
            "relation": self.relation,
            "role": self.actor_role,
            "action": str(self.action_concept),
            "latency": self.latency,
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "PolicyRule":
        r = Fields(data)
        guard = r.get("guard", array(SignalCondition.from_data), ())
        relation, role, action = r.get("relation", text), r.get("role", text), r.get("action", concept)
        return r.build(cls, guard, relation, role, action, r.get("latency", float_integer, 0))


def _sorted_edges(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """Edges by (from, to), parallel edges by their contract's canonical
    text.  The text is built only when some pair of ends repeats: with
    distinct ends it never decides the order."""
    edges = list(edges)
    if len({(e.from_role, e.to_role) for e in edges}) == len(edges):
        return tuple(sorted(edges, key=lambda e: (e.from_role, e.to_role)))
    return tuple(
        sorted(edges, key=lambda e: (e.from_role, e.to_role, canonical_dumps(e.contract.to_data())))
    )


@dataclass(frozen=True)
class Hypothesis:
    """A candidate service realization (graph, assignment, policy, constraints)."""

    roles: tuple[Role, ...]  # sorted by role id
    edges: tuple[Edge, ...]  # sorted
    assignment: tuple[tuple[str, Component], ...]  # sorted by role id
    policy: tuple[PolicyRule, ...]  # order significant
    constraints: tuple[tuple[str, float], ...]  # sorted by name
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        roles: Iterable[Role],
        edges: Iterable[Edge] = (),
        assignment: Mapping[str, Component] | None = None,
        policy: Sequence[PolicyRule] = (),
        constraints: Mapping[str, float] | None = None,
    ) -> "Hypothesis":
        return cls(
            roles=tuple(sorted(roles, key=lambda r: r.role_id)),
            edges=_sorted_edges(edges),
            assignment=tuple(sorted((assignment or {}).items())),
            policy=tuple(policy),
            constraints=tuple(sorted((constraints or {}).items())),
        )

    # -- accessors --------------------------------------------------------

    def role_ids(self) -> tuple[str, ...]:
        return tuple(r.role_id for r in self.roles)

    def role(self, role_id: str) -> Role | None:
        for r in self.roles:
            if r.role_id == role_id:
                return r
        return None

    def assignment_map(self) -> dict[str, Component]:
        return dict(self.assignment)

    def binding(self, role_id: str) -> Component | None:
        for rid, comp in self.assignment:
            if rid == role_id:
                return comp
        return None

    def sites_of(self, component_id: str) -> tuple[str, ...]:
        """The roles bound to the component ``component_id``."""
        return tuple(rid for rid, comp in self.assignment if comp.component_id == component_id)

    def constraint_map(self) -> dict[str, float]:
        return dict(self.constraints)

    def sinks(self) -> tuple[str, ...]:
        with_out = {e.from_role for e in self.edges}
        return tuple(r for r in self.role_ids() if r not in with_out)

    def sources(self) -> tuple[str, ...]:
        with_in = {e.to_role for e in self.edges}
        return tuple(r for r in self.role_ids() if r not in with_in)

    def propagated_obligations(self) -> frozenset[ConceptId]:
        """Obligations carried by contract edges plus notification actions."""
        out: set[ConceptId] = set()
        for e in self.edges:
            out |= e.contract.obligations
        for rule in self.policy:
            if rule.relation == "notifies":
                out.add(rule.action_concept)
        return frozenset(out)

    def entity_vocabulary(self) -> frozenset[ConceptId]:
        out: set[ConceptId] = set()
        for r in self.roles:
            out |= r.requires
        for e in self.edges:
            out |= e.contract.entity_types
        for _, comp in self.assignment:
            out |= comp.provides
        return frozenset(out)

    def event_vocabulary(self) -> frozenset[ConceptId]:
        out: set[ConceptId] = set()
        for e in self.edges:
            out |= e.contract.event_types
        for rule in self.policy:
            out.add(rule.action_concept)
        return frozenset(out)

    # -- serialization -----------------------------------------------------

    def to_data(self) -> dict:
        return {
            "roles": [r.to_data() for r in self.roles],
            "edges": [e.to_data() for e in self.edges],
            "assignment": {rid: comp.to_data() for rid, comp in self.assignment},
            "policy": [p.to_data() for p in self.policy],
            "constraints": {n: b for n, b in self.constraints},
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "Hypothesis":
        r = Fields(data)
        roles = r.get("roles", distinct(array(Role.from_data), "id"), ())
        edges = r.get("edges", array(Edge.from_data), ())
        assignment = r.get("assignment", mapping(Component.from_data), {})
        policy = r.get("policy", array(PolicyRule.from_data), ())
        constraints = r.get("constraints", mapping(number), {})
        return r.build(cls.build, roles, edges, assignment, policy, constraints)

    def canonical_text(self) -> str:
        """``canonical_dumps(self.to_data())``, composed from the cached
        texts of the elements, so an element shared with another
        hypothesis is serialized once."""
        return (
            '{"assignment":'
            + canonical_object((rid, comp.canonical_text()) for rid, comp in self.assignment)
            + ',"constraints":'
            + canonical_dumps(dict(self.constraints))
            + ',"edges":['
            + ",".join(e.canonical_text() for e in self.edges)
            + '],"policy":['
            + ",".join(p.canonical_text() for p in self.policy)
            + '],"roles":['
            + ",".join(r.canonical_text() for r in self.roles)
            + "]}"
        )

    def digest(self) -> str:
        """Content digest of ``to_data()``, computed on first use; the
        instance is immutable, so it never goes stale."""
        if self._digest is None:
            object.__setattr__(self, "_digest", sha256_hex(self.canonical_text()))
        return self._digest


@dataclass(frozen=True)
class SoundnessReport:
    sound: bool
    violations: tuple[tuple[str, str], ...]  # (code, message)

    def messages(self) -> list[str]:
        return [f"{code}: {msg}" for code, msg in self.violations]


def type_soundness(h: Hypothesis, schema: OntologySchema) -> SoundnessReport:
    """Check every hypothesis invariant under the schema's refinement closure.

    The report reads only ``h`` and the schema, so it is judged once per
    distinct graph and kept in ``schema.memo`` under
    ``("soundness", h.digest())``."""
    return schema.remembered(("soundness", h.digest()), _judge_soundness, h, schema)


def _judge_soundness(h: Hypothesis, schema: OntologySchema) -> SoundnessReport:
    """``type_soundness`` of a graph not judged before on ``schema``: every
    element checked in turn.  Violations come in a fixed order: each role's
    requirements, assignment coverage, each binding (the component's
    concepts, then the role's requirements it leaves uncovered), each edge
    (endpoints, then contract) and each policy rule (relation, actor role,
    guard, latency, then action), then graph shape.
    """
    violations: list[tuple[str, str]] = []
    roles: dict[str, Role] = {}
    for role in h.roles:
        roles.setdefault(role.role_id, role)
        for f in sorted(role.requires):
            _check_concept(violations, schema, f, Category.FUNCTION, f"role {role.role_id} requirement")

    assignment = h.assignment_map()
    for rid in sorted(roles):
        if rid not in assignment:
            violations.append(("unassigned-role", f"role {rid} has no component assigned"))
    for rid in sorted(assignment):
        if rid not in roles:
            violations.append(("unknown-role", f"assignment references unknown role {rid}"))

    for rid, comp in h.assignment:
        role = roles.get(rid)
        if role is None:
            continue
        where = f"component {comp.component_id}"
        ok = _check_concept(violations, schema, comp.concept, None, where)
        for f in sorted(comp.provides):
            ok = _check_concept(violations, schema, f, Category.FUNCTION, f"{where} provides") and ok
        if ok:
            for needed in uncovered(role, comp, schema):
                if schema.declares(needed):
                    violations.append(
                        ("function-unsatisfied", f"role {rid}: {where} provides no refinement of {needed}")
                    )

    for e in h.edges:
        where = f"edge {e.from_role}->{e.to_role}"
        for end in (e.from_role, e.to_role):
            if end not in roles:
                violations.append(("edge-endpoint-missing", f"{where}: unknown role {end}"))
        _check_contract(violations, schema, e.contract, where)

    for idx, rule in enumerate(h.policy):
        if rule.relation not in ("executes", "notifies"):
            violations.append(("bad-policy-relation", f"policy rule {idx}: unknown relation {rule.relation!r}"))
        if rule.actor_role not in roles:
            violations.append(("bad-policy-role", f"policy rule {idx}: unknown actor role {rule.actor_role}"))
        for cond in rule.guard:
            violations += [("bad-policy-signal", f"policy rule {idx}: {fault}") for fault in cond.faults()]
        if rule.latency < 0:
            violations.append(("bad-policy-latency", f"policy rule {idx}: negative latency"))
        want = Category.INTERACTION if rule.relation == "notifies" else Category.FUNCTION
        _check_concept(violations, schema, rule.action_concept, want, f"policy rule {idx} action")

    violations += _graph_shape_violations(h)
    return SoundnessReport(sound=not violations, violations=tuple(violations))


def _check_concept(
    out: list[tuple[str, str]], schema: OntologySchema, c: ConceptId, want: Category | None, where: str
) -> bool:
    """Append the violation of ``c`` (undeclared, or not of category
    ``want``) to ``out``; True when there is none."""
    if not schema.declares(c):
        out.append(("unknown-concept", f"{where}: undeclared concept {c}"))
        return False
    if want is not None and schema.category(c) is not want:
        out.append(("category-mismatch", f"{where}: {c} is {schema.category(c).value}, expected {want.value}"))
        return False
    return True


def _check_contract(
    out: list[tuple[str, str]], schema: OntologySchema, contract: InterfaceContract, where: str
) -> None:
    """Append to ``out`` the violations of the concepts that ``contract``
    names: each must be declared, and each obligation an Interaction."""
    for c in sorted(contract.entity_types | contract.event_types):
        _check_concept(out, schema, c, None, f"{where} contract")
    for ob in sorted(contract.obligations):
        _check_concept(out, schema, ob, Category.INTERACTION, f"{where} obligation")


def uncovered(role: Role, comp: Component, schema: OntologySchema) -> list[ConceptId]:
    """The requirements of ``role``, sorted, that no function ``comp``
    provides is or refines; an undeclared requirement is never covered."""
    provided = schema.cached_mask(comp.provides)
    return [needed for needed in sorted(role.requires) if not schema.mask_covers(provided, needed)]


def _graph_shape_violations(h: Hypothesis) -> tuple[tuple[str, str], ...]:
    """Cycles and disconnection among the roles of ``h`` along its edges
    between declared roles: a cycle is what ``graphlib``'s ``prepare``
    refuses, and connectivity is one depth-first search from the smallest
    role over the edges taken both ways."""
    out: list[tuple[str, str]] = []
    role_ids = set(h.role_ids())
    flow = TopologicalSorter()
    undirected: dict[str, set[str]] = {r: set() for r in role_ids}
    for e in h.edges:
        if e.from_role in role_ids and e.to_role in role_ids:
            flow.add(e.to_role, e.from_role)
            undirected[e.from_role].add(e.to_role)
            undirected[e.to_role].add(e.from_role)
    try:
        flow.prepare()
    except CycleError:
        out.append(("graph-cycle", "service-flow edges form a cycle"))

    if role_ids:
        start = min(role_ids)
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in undirected[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != role_ids:
            missing = ", ".join(sorted(role_ids - seen))
            out.append(("graph-disconnected", f"roles unreachable from {start}: {missing}"))
    return tuple(out)


# ---------------------------------------------------------------------------
# Interface compatibility
# ---------------------------------------------------------------------------


def contract_check(h: Hypothesis, contract: InterfaceContract, schema: OntologySchema) -> bool:
    """Whether ``h`` satisfies ``contract``: its entity and event
    vocabularies cover the contract's types up to refinement, and it
    propagates every contract obligation exactly."""
    entities = schema.closure_mask(h.entity_vocabulary())
    events = schema.closure_mask(h.event_vocabulary())
    return (
        all(schema.mask_covers(entities, t) for t in contract.entity_types)
        and all(schema.mask_covers(events, t) for t in contract.event_types)
        and contract.obligations <= h.propagated_obligations()
    )


def interface_compatible(
    upstream: Hypothesis,
    downstream: Hypothesis,
    contract: InterfaceContract,
    schema: OntologySchema,
) -> bool:
    """True iff both boundaries satisfy the contract."""
    return all(contract_check(side, contract, schema) for side in (upstream, downstream))
