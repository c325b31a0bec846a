"""Scenario packs: scripted platform histories plus run configuration.

A scenario file is a JSON document with a referenced (or inline) ontology
document, an assertion section, a component registry, an initial raw
state, an initial hypothesis, and timed event injections.  Events patch
the raw state before the tick they fire on; their ticks are strictly
increasing.  Everything is validated at load: the assertion base must be
consistent, the initial hypothesis type-sound, and every patched state
must lift.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

from ..errors import ConfigError, MalformedTransformation, ParseError, ValidationError
from ..certify import RegimeSwitchModel
from ..evaluation import InvariantCore, Regime, StructuralPrior
from ..model import (
    Component,
    Hypothesis,
    RawPlatformState,
    semantic_lift,
    type_soundness,
)
from ..ontology import (
    AssertionBase,
    ConceptId,
    OntologySchema,
    assertions_from_data,
    check_consistency,
    load_schema,
)
from ..orchestrator import GateFlags, OrchestratorConfig
from ..transform import AddSubservice, TransformationGrammar, transformation_from_data

#: Raw-state patch operations understood by scenario events.
PATCH_OPS = (
    "battery",
    "availability",
    "bandwidth",
    "deadline",
    "flag+",
    "flag-",
    "zone+",
    "zone-",
    "health",
    "fail",
)


@dataclass(frozen=True)
class ScenarioEvent:
    tick: int
    patches: tuple[tuple, ...]

    def to_data(self) -> dict:
        return {"tick": self.tick, "patches": [list(p) for p in self.patches]}


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

    def annotation(self, key: str, default=None):
        return dict(self.annotations).get(key, default)

    def patched(self, raw: RawPlatformState, tick: int) -> tuple[RawPlatformState, list[tuple[str, str]]]:
        """Apply this tick's event patches; returns the updated raw state
        and any scripted runtime failures (component id, obligation code)."""
        failures: list[tuple[str, str]] = []
        for event in self.events:
            if event.tick != tick:
                continue
            for patch in event.patches:
                raw, failure = _apply_patch(raw, patch)
                if failure is not None:
                    failures.append(failure)
        return raw, failures


def _apply_patch(raw: RawPlatformState, patch: Sequence) -> tuple[RawPlatformState, tuple[str, str] | None]:
    op = patch[0]
    if op == "battery":
        _, agent_id, value = patch
        agents = tuple(
            replace(a, battery=float(value)) if a.agent_id == agent_id else a for a in raw.agents
        )
        return replace(raw, agents=agents), None
    if op == "availability":
        _, agent_id, flag = patch
        agents = tuple(
            replace(a, available=bool(flag)) if a.agent_id == agent_id else a for a in raw.agents
        )
        return replace(raw, agents=agents), None
    if op == "bandwidth":
        _, zone, value = patch
        updated = raw.network_map()
        updated[str(zone)] = float(value)
        return replace(raw, network=tuple(sorted(updated.items()))), None
    if op == "deadline":
        _, value = patch
        return replace(raw, request=replace(raw.request, deadline=int(value))), None
    if op == "flag+":
        _, name = patch
        return replace(raw, safety_flags=raw.safety_flags | {str(name)}), None
    if op == "flag-":
        _, name = patch
        return replace(raw, safety_flags=raw.safety_flags - {str(name)}), None
    if op in ("zone+", "zone-"):
        _, zone, concept_text = patch
        concept = ConceptId.parse(str(concept_text))
        env = {z: list(ds) for z, ds in raw.environment_facts}
        current = env.setdefault(str(zone), [])
        if op == "zone+" and concept not in current:
            current.append(concept)
        if op == "zone-" and concept in current:
            current.remove(concept)
        facts = tuple(sorted((z, tuple(sorted(ds))) for z, ds in env.items()))
        return replace(raw, environment_facts=facts), None
    if op == "health":
        _, component_id, status = patch
        components = tuple(
            replace(c, health=str(status)) if c.component_id == component_id else c
            for c in raw.components
        )
        return replace(raw, components=components), None
    if op == "fail":
        _, component_id, code = patch
        components = tuple(
            replace(c, health="failed") if c.component_id == component_id else c
            for c in raw.components
        )
        return replace(raw, components=components), (str(component_id), str(code))
    raise ValidationError([f"unknown patch operation {op!r}"])


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def scenario_from_data(data: Mapping, base_dir: Path | None = None) -> Scenario:
    problems: list[str] = []
    if "ontology_text" in data:
        schema = load_schema(str(data["ontology_text"]))
    elif "ontology" in data:
        if base_dir is None:
            raise ValidationError(["scenario references an ontology file but no base directory given"])
        schema = load_schema((base_dir / str(data["ontology"])).read_text(encoding="utf-8"))
    else:
        raise ValidationError(["scenario must reference an ontology ('ontology' or 'ontology_text')"])

    registry = tuple(
        sorted((Component.from_data(c) for c in data.get("registry", [])), key=lambda c: c.component_id)
    )
    assertions = assertions_from_data(data.get("assertions", {}), schema)
    assertions = _extend_with_registry(assertions, registry)
    report = check_consistency(schema, assertions)
    if not report.consistent:
        problems.extend(report.messages())

    state_data = dict(data["initial_state"])
    if "components" not in state_data:
        state_data["components"] = [[c.component_id, str(c.concept), "ok"] for c in registry]
    initial_state = RawPlatformState.from_data(state_data)

    initial_hypothesis = Hypothesis.from_data(data["initial_hypothesis"])
    soundness = type_soundness(initial_hypothesis, schema)
    if not soundness.sound:
        problems.extend(f"initial hypothesis: {m}" for m in soundness.messages())

    ticks = int(data.get("ticks", 1))
    if ticks < 0:
        problems.append("ticks must be nonnegative")

    events: list[ScenarioEvent] = []
    last_tick = -1
    for entry in data.get("events", []):
        tick = int(entry["tick"])
        if tick <= last_tick:
            problems.append(f"event ticks must be strictly increasing (saw {tick} after {last_tick})")
        last_tick = tick
        patches = []
        for p in entry.get("patches", []):
            if not p or p[0] not in PATCH_OPS:
                problems.append(f"unknown patch operation in event at tick {tick}: {p!r}")
            else:
                patches.append(tuple(p))
        events.append(ScenarioEvent(tick=tick, patches=tuple(patches)))

    if problems:
        raise ValidationError(problems)

    scenario = Scenario(
        name=str(data.get("name", "scenario")),
        schema=schema,
        assertions=assertions,
        registry=registry,
        initial_state=initial_state,
        initial_hypothesis=initial_hypothesis,
        ticks=ticks,
        events=tuple(events),
        annotations=tuple(sorted(data.get("annotations", {}).items())),
    )
    _validate_lifts(scenario)
    return scenario


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


def _validate_lifts(scenario: Scenario) -> None:
    """Every patched raw state must lift against the schema."""
    problems: list[str] = []
    raw = scenario.initial_state
    for tick in range(scenario.ticks):
        raw, _ = scenario.patched(raw, tick)
        try:
            semantic_lift(replace(raw, time=tick), scenario.schema, scenario.assertions)
        except Exception as exc:  # TypingError and friends
            problems.append(f"tick {tick}: state does not lift: {exc}")
    if problems:
        raise ValidationError(problems)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError([f"cannot read scenario: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ParseError([f"malformed scenario JSON: {exc}"]) from exc
    return scenario_from_data(data, base_dir=path.parent)


def scenario_to_data(scenario: Scenario, ontology_text: str) -> dict:
    """Re-encode a scenario with its ontology inline (used by the seeded
    benchmark generators, which perturb and re-validate)."""
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


#: Configuration keys that have no default.
REQUIRED_CONFIG_KEYS = ("grammar", "regimes", "core", "capacity_budget", "drift_bound")
#: Every configuration key; any other key is refused, so a typo cannot
#: silently leave a default in its place.
CONFIG_KEYS = (
    *REQUIRED_CONFIG_KEYS,
    "fallback",
    "prior",
    "switch_model",
    "reuse_bonus",
    "reuse_penalty",
    "transport_max_distance",
    "flags",
)

T = TypeVar("T")


def _number(data: Mapping, key: str, default: float | None = None, kind: type = float) -> float:
    """The JSON number under ``key`` (``default`` when absent), as ``kind``;
    anything else, a numeric string or a boolean included, is a config error."""
    value = data.get(key, default)
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed) or not math.isfinite(value):
        wanted = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"configuration key {key!r} must be {wanted}, got {value!r}")
    return kind(value)


def _section(name: str, build: Callable[[], T]) -> T:
    """``build()``, with a malformed value under configuration section
    ``name`` (a missing key, a list where an object belongs, a bad number)
    refused as a ConfigError that names the section.  A transformation that
    does not decode (an unknown variant, a prototype of the wrong variant)
    is a config error here too."""
    try:
        return build()
    except KeyError as exc:
        raise ConfigError(f"configuration section {name!r}: missing key {exc.args[0]!r}") from exc
    except (ConfigError, MalformedTransformation, TypeError, AttributeError, ValueError, IndexError) as exc:
        raise ConfigError(f"configuration section {name!r}: {exc}") from exc


def config_from_data(
    data: Mapping, schema: OntologySchema, assertions: AssertionBase
) -> OrchestratorConfig:
    missing = [key for key in REQUIRED_CONFIG_KEYS if key not in data]
    if missing:
        raise ConfigError(f"configuration is missing required keys: {', '.join(missing)}")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    grammar = _section("grammar", lambda: TransformationGrammar.from_data(data["grammar"]))
    fallback_data = data.get("fallback")
    if fallback_data is None:
        raise ConfigError("configuration must declare the supervision fallback")
    fallback = _section("fallback", lambda: transformation_from_data(fallback_data))
    if not isinstance(fallback, AddSubservice):
        raise ConfigError("the fallback must be an add_subservice transformation")
    return OrchestratorConfig(
        schema=schema,
        assertions=assertions,
        grammar=grammar,
        regimes=_section("regimes", lambda: tuple(Regime.from_data(r) for r in data["regimes"])),
        core=_section("core", lambda: InvariantCore.from_data(data["core"])),
        prior=_section("prior", lambda: StructuralPrior.from_data(data.get("prior", {}))),
        capacity_budget=_number(data, "capacity_budget"),
        switch_model=_section(
            "switch_model", lambda: RegimeSwitchModel.from_data(data.get("switch_model", {}))
        ),
        drift_bound=_number(data, "drift_bound"),
        reuse_bonus=_number(data, "reuse_bonus", 1.0),
        reuse_penalty=_number(data, "reuse_penalty", 2.0),
        transport_max_distance=_number(data, "transport_max_distance", 0, kind=int),
        fallback=fallback,
        flags=_section("flags", lambda: GateFlags.from_data(data.get("flags", {}))),
    )


def load_config(path: str | Path, schema: OntologySchema, assertions: AssertionBase) -> OrchestratorConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError([f"cannot read config: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ParseError([f"malformed config JSON: {exc}"]) from exc
    return config_from_data(data, schema, assertions)
