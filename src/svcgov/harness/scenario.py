"""Scenario packs: scripted platform histories plus run configuration.

A scenario file is a JSON document with a referenced (or inline) ontology
document, an assertion section, a component registry, an initial raw
state, an initial hypothesis, and timed event injections.  Events patch
the raw state before the tick they fire on; their ticks are strictly
increasing.  Everything is validated at load: the assertion base must be
consistent, the initial hypothesis type-sound, and every patched state
must lift.  Between events the raw state changes only in its time, which
the lift reads only as the phase (tick 0 or later), so the scenario walks
its script once, when it is built: it keeps the raw state and scripted
failures of tick 0 and of each event tick, and a lift table holding the
lift and component registry of each distinct state a run meets.  Runs,
replays and scans step through these kept states (``Scenario.at``), and
read that table itself when their config is on an equal schema and
assertion base (``orchestrator.lift_table``).  Neither load time nor the
memory kept grows with ``ticks``.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..errors import ConfigError, GovernanceError, ParseError, ValidationError
from ..certificates import OBLIGATION_CODES
from ..certify import RegimeSwitchModel
from ..evaluation import InvariantCore, Regime, StructuralPrior
from ..fields import (
    Fields, anything, array, boolean, concept, decode, distinct, float_integer, integer, mapping, number, one_of, read,
    row, sorted_items, text, wrong,
)
from ..model import HEALTH, Component, Hypothesis, RawPlatformState, type_soundness
from ..ontology import AssertionBase, ConceptId, OntologySchema, check_consistency, load_schema
from ..orchestrator import GateFlags, LiftTable, OrchestratorConfig
from ..transform import AddSubservice, TransformationGrammar, prototype

if TYPE_CHECKING:  # pragma: no cover
    from importlib.resources.abc import Traversable

#: Raw-state patch operations understood by scenario events, with the
#: kinds of their arguments.
PATCH_ARGS = {
    "battery": (text, number), "availability": (text, boolean), "bandwidth": (text, number),
    "deadline": (float_integer,), "flag+": (text,), "flag-": (text,), "zone+": (text, concept),
    "zone-": (text, concept), "health": (text, one_of(*HEALTH)), "fail": (text, one_of(*OBLIGATION_CODES)),
}


#: Patch operations whose target must be an agent or a component of the
#: state; a zone or a bandwidth target may name a new zone.
PATCH_TARGETS = {"battery": "agent", "availability": "agent", "health": "component", "fail": "component"}


def _patch(value: object) -> tuple:
    """A raw-state patch ``[op, args...]``, each argument of its op's kind."""
    op = value[0] if isinstance(value, list) and value else None
    if not isinstance(op, str) or op not in PATCH_ARGS:
        raise wrong(value, f"a patch [op, args...] with op one of {', '.join(PATCH_ARGS)}")
    row(text, *PATCH_ARGS[op])(value)
    return tuple(value)


@dataclass(frozen=True)
class ScenarioEvent:
    tick: int
    patches: tuple[tuple, ...]

    def to_data(self) -> dict:
        return {"tick": self.tick, "patches": [list(p) for p in self.patches]}

    @classmethod
    def from_data(cls, data: Mapping) -> "ScenarioEvent":
        r = Fields(data)
        return r.build(cls, r.get("tick", integer), r.get("patches", array(_patch), ()))


@dataclass(frozen=True)
class Scenario:
    name: str
    schema: OntologySchema
    assertions: AssertionBase
    registry: tuple[Component, ...]
    initial_state: RawPlatformState
    initial_hypothesis: Hypothesis
    ticks: int
    events: tuple[ScenarioEvent, ...]
    annotations: tuple[tuple[str, object], ...] = ()
    #: Each tick's event patches in declaration order, derived from ``events``.
    _patches: dict[int, list[tuple]] = field(init=False, repr=False, compare=False)
    #: Tick 0 and each event tick before ``ticks``, in order; per such tick,
    #: its raw state (time set to that tick) and its scripted failures.
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _states: tuple[tuple[RawPlatformState, tuple[tuple[str, str], ...]], ...] = field(
        init=False, repr=False, compare=False
    )
    #: The lift and registry of each distinct state that a run meets.
    lifts: LiftTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        patches: dict[int, list[tuple]] = {}
        for event in self.events:
            patches.setdefault(event.tick, []).extend(event.patches)
        object.__setattr__(self, "_patches", patches)
        self._walk()

    def _walk(self) -> None:
        """Work out the raw state and scripted failures of tick 0 and of
        each event tick before ``ticks``, and lift each distinct state that
        a run meets: a kept state at its own tick and, when it lasts past
        it, at the next tick, since the lift reads the time only as the
        phase, which tells tick 0 from every later tick.  A state that does
        not lift is refused, named by its tick."""
        starts = sorted({0, *(t for t in self._patches if 0 < t < self.ticks)})
        lifts, states, problems = LiftTable(self.schema, self.assertions), [], []
        raw = self.initial_state
        for tick, end in zip(starts, [*starts[1:], self.ticks]):
            raw, failures = self.patched(raw, tick)
            x = replace(raw, time=tick)
            states.append((x, tuple(failures)))
            try:
                for later in range(tick, min(tick + 2, end)):  # none when ``ticks`` is 0
                    lifts.lift(x if later == tick else replace(x, time=later))
            except GovernanceError as exc:
                problems.append(f"tick {tick}: state does not lift: {exc}")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_states", tuple(states))
        object.__setattr__(self, "lifts", lifts)

    def annotation(self, key: str, default=None):
        return dict(self.annotations).get(key, default)

    def at(self, tick: int) -> tuple[RawPlatformState, tuple[tuple[str, str], ...]]:
        """The raw state of ``tick``, its time set to the tick, and the
        runtime failures scripted at that tick (component id, obligation
        code), as worked out when the scenario was built; from ``ticks``
        on, the last state that the script reaches before it."""
        x, failures = self._states[bisect_right(self._starts, tick) - 1]
        return (x, failures) if x.time == tick else (replace(x, time=tick), ())

    def patched(self, raw: RawPlatformState, tick: int) -> tuple[RawPlatformState, list[tuple[str, str]]]:
        """Apply this tick's event patches; returns the updated raw state
        and any scripted runtime failures (component id, obligation code)."""
        failures: list[tuple[str, str]] = []
        for patch in self._patches.get(tick, ()):
            raw, failure = _apply_patch(raw, patch)
            if failure is not None:
                failures.append(failure)
        return raw, failures


def _apply_patch(raw: RawPlatformState, patch: Sequence) -> tuple[RawPlatformState, tuple[str, str] | None]:
    """One patch applied; its arguments were checked against ``PATCH_ARGS`` at load."""
    op, target, *rest = patch
    if op in ("battery", "availability"):
        change = {"battery": float(rest[0])} if op == "battery" else {"available": rest[0]}
        return replace(raw, agents=tuple(replace(a, **change) if a.agent_id == target else a for a in raw.agents)), None
    if op == "bandwidth":
        return replace(raw, network=tuple(sorted({**raw.network_map(), target: float(rest[0])}.items()))), None
    if op == "deadline":
        return replace(raw, request=replace(raw.request, deadline=target)), None
    if op in ("flag+", "flag-"):
        flags = raw.safety_flags | {target} if op == "flag+" else raw.safety_flags - {target}
        return replace(raw, safety_flags=flags), None
    if op in ("zone+", "zone-"):
        concept, env = ConceptId.parse(rest[0]), {z: list(ds) for z, ds in raw.environment_facts}
        current = env.setdefault(target, [])
        if op == "zone+" and concept not in current:
            current.append(concept)
        if op == "zone-" and concept in current:
            current.remove(concept)
        return replace(raw, environment_facts=tuple(sorted((z, tuple(sorted(ds))) for z, ds in env.items()))), None
    if op not in ("health", "fail"):
        raise ValidationError([f"unknown patch operation {op!r}"])
    health = rest[0] if op == "health" else "failed"
    components = tuple(replace(c, health=health) if c.component_id == target else c for c in raw.components)
    return replace(raw, components=components), ((target, rest[0]) if op == "fail" else None)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def scenario_from_data(data: Mapping, base_dir: Path | Traversable | None = None) -> Scenario:
    if base_dir is None:
        return _scenario_from_data(data, None)
    return _scenario_from_data(data, lambda path: load_schema(_read(base_dir / path, "ontology")))


def _scenario_from_data(data: Mapping, schema_at: Callable[[str], OntologySchema] | None) -> Scenario:
    """The scenario of ``data``, with every check of ``scenario_from_data``;
    ``schema_at`` gives the schema of an ``ontology`` file reference, and
    without it only inline ontology text is accepted."""
    parts = read(ValidationError, "scenario", _parts_from_data, data)
    ontology, path = parts.pop("ontology_text"), parts.pop("ontology")
    if (ontology is None) == (path is None) or (path is not None and schema_at is None):
        raise ValidationError(["a scenario gives either 'ontology_text' or an 'ontology' file with a base directory"])
    schema = load_schema(ontology) if path is None else schema_at(path)
    assertions = _extend_with_registry(parts.pop("assertions"), parts["registry"])
    problems = check_consistency(schema, assertions).messages()
    problems += [f"initial hypothesis: {m}" for m in type_soundness(parts["initial_hypothesis"], schema).messages()]
    problems += ["ticks must be nonnegative"] if parts["ticks"] < 0 else []
    ticks = [-1] + [event.tick for event in parts["events"]]
    bad = [(a, b) for a, b in zip(ticks, ticks[1:]) if b <= a]
    problems += [f"event ticks must be strictly increasing (saw {b} after {a})" for a, b in bad]
    if problems:
        raise ValidationError(problems)
    return Scenario(schema=schema, assertions=assertions, **parts)


def _parts_from_data(data: Mapping) -> dict:
    """The scenario's fields as read, before its ontology is loaded."""
    r = Fields(data)
    registry = r.get("registry", distinct(array(Component.from_data, _by_component_id), "component"), ())
    state = r.get("initial_state", lambda d: RawPlatformState.from_data(_with_components(d, registry)))
    events = r.get("events", array(ScenarioEvent.from_data), ())
    if state is not None and events:
        # no patch adds an agent or a component, so a target that the
        # initial state lacks would match nothing on every tick
        ids = {"agent": {a.agent_id for a in state.agents}, "component": {c.component_id for c in state.components}}
        for i, event in enumerate(events):
            for j, (op, target, *_) in enumerate(event.patches):
                kind = PATCH_TARGETS.get(op)
                if kind is not None and target not in ids[kind]:
                    r.refuse(("events", i, "patches", j, 1), f"{target!r} is no {kind} of the initial state")
    return r.build(
        dict,
        ontology_text=r.get("ontology_text", text, None),
        ontology=r.get("ontology", text, None),
        name=r.get("name", _file_name, "scenario"),
        registry=registry,
        assertions=r.get("assertions", assertions_from_data, AssertionBase({}, (), ())),
        initial_state=state,
        initial_hypothesis=r.get("initial_hypothesis", Hypothesis.from_data),
        ticks=r.get("ticks", integer, 1),
        events=events,
        annotations=r.get("annotations", mapping(anything, sorted_items), ()),
    )


def _file_name(value: object) -> str:
    """A scenario name, which names the run's output files: one plain
    file-name component."""
    name = text(value)
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise wrong(value, "one plain file name: not empty, '.' or '..', and without '/', '\\' or NUL")
    return name


def _by_component_id(registry: list[Component]) -> tuple[Component, ...]:
    return tuple(sorted(registry, key=lambda c: c.component_id))


def _with_components(state: object, registry: Sequence[Component] | None) -> object:
    """A state that lists no components starts with every registry entry
    healthy; it is copied as decoded, so a key that it repeats is refused."""
    if not isinstance(state, Mapping) or "components" in state:
        return state
    filled = copy(state)
    filled["components"] = [[c.component_id, str(c.concept), "ok"] for c in registry or ()]
    return filled


def assertions_from_data(data: Mapping) -> AssertionBase:
    """A scenario's assertion section: individuals, relation facts and parameter facts."""
    r = Fields(data)
    individuals = r.get("individuals", distinct(array(row(text, concept), dict), 0), {})
    facts = r.get("facts", array(row(text, text, text)), ())
    return r.build(AssertionBase, individuals, facts, r.get("params", array(row(text, text, anything)), ()))


def _extend_with_registry(assertions: AssertionBase, registry: Sequence[Component]) -> AssertionBase:
    """Registry entries imply individuals and providesFunction facts."""
    individuals = dict(assertions.individuals)
    facts = list(assertions.relation_facts)
    by_concept: dict[ConceptId, str] = {}
    for ind, concept in sorted(individuals.items()):
        by_concept.setdefault(concept, ind)
    for comp in registry:
        individuals.setdefault(comp.component_id, comp.concept)
        for function in sorted(comp.provides):
            ind = by_concept.get(function)
            if ind is None:
                ind = f"fn.{function.namespace}.{function.local_name}"
                individuals.setdefault(ind, function)
                by_concept[function] = ind
            fact = ("providesFunction", comp.component_id, ind)
            if fact not in facts:
                facts.append(fact)
    return AssertionBase(
        individuals=individuals,
        relation_facts=tuple(facts),
        parameter_facts=assertions.parameter_facts,
    )


def _read(path: Path | Traversable, what: str, as_json: bool = False) -> object:
    """The text of the file at ``path`` or, ``as_json``, the JSON it holds; a
    ParseError when it cannot be read or decoded."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError([f"cannot read {what}: {exc}"]) from exc
    except ValueError as exc:  # not UTF-8
        raise ParseError([f"malformed {what}: {exc}"]) from exc
    return decode(ParseError, what, text) if as_json else text


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_data(_read(Path(path), "scenario JSON", as_json=True), base_dir=Path(path).parent)


def scenario_to_data(scenario: Scenario, ontology_text: str) -> dict:
    """Re-encode a scenario with its ontology inline."""
    return {
        "name": scenario.name,
        "ontology_text": ontology_text,
        "ticks": scenario.ticks,
        "registry": [c.to_data() for c in scenario.registry],
        "assertions": {
            "individuals": [[i, str(c)] for i, c in sorted(scenario.assertions.individuals.items())],
            "facts": [list(f) for f in scenario.assertions.relation_facts],
            "params": [list(p) for p in scenario.assertions.parameter_facts],
        },
        "initial_state": scenario.initial_state.to_data(),
        "initial_hypothesis": scenario.initial_hypothesis.to_data(),
        "events": [e.to_data() for e in scenario.events],
        "annotations": dict(scenario.annotations),
    }


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


_FALLBACK = prototype(AddSubservice, "the fallback must be an add_subservice transformation")


def config_from_data(data: Mapping, schema: OntologySchema, assertions: AssertionBase) -> OrchestratorConfig:
    return OrchestratorConfig(schema, assertions, **_config_fields(data))


def _config_fields(data: Mapping) -> dict:
    """The configuration's fields as read: all but the schema and assertion
    base, which reading them does not consult."""
    return read(ConfigError, "configuration", _config_from_data, data)


def _config_from_data(data: Mapping) -> dict:
    """The configuration's fields as read."""
    r, defaults = Fields(data), OrchestratorConfig
    return r.build(
        dict,
        grammar=r.get("grammar", TransformationGrammar.from_data),
        regimes=r.get("regimes", array(Regime.from_data)),
        core=r.get("core", InvariantCore.from_data),
        prior=r.get("prior", StructuralPrior.from_data, StructuralPrior()),
        capacity_budget=r.get("capacity_budget", number),
        switch_model=r.get("switch_model", RegimeSwitchModel.from_data, RegimeSwitchModel()),
        drift_bound=r.get("drift_bound", number),
        reuse_bonus=r.get("reuse_bonus", number, defaults.reuse_bonus),
        reuse_penalty=r.get("reuse_penalty", number, defaults.reuse_penalty),
        fallback=r.get("fallback", _FALLBACK),
        flags=r.get("flags", GateFlags.from_data, defaults.flags),
    )


def load_config(path: str | Path, schema: OntologySchema, assertions: AssertionBase) -> OrchestratorConfig:
    return config_from_data(_read(Path(path), "config JSON", as_json=True), schema, assertions)
