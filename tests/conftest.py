"""Shared fixtures: a compact test vocabulary, hypothesis builders, and a
minimal orchestrator configuration, plus the two shipped packs."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from svcgov.canon import sha256_hex
from svcgov.evaluation import (
    EvaluatorWeights,
    IdentitySpec,
    InvariantCore,
    Regime,
    RegimeBudgets,
    SafetyPredicate,
    StructuralPrior,
)
from svcgov.certify import RegimeSwitchModel
from svcgov.harness.packs import load_pack, pack_data, pack_dir, pack_scenario
from svcgov.harness.scenario import scenario_from_data, scenario_to_data
from svcgov.model import (
    AgentState,
    Component,
    ComponentState,
    Edge,
    Hypothesis,
    InterfaceContract,
    PolicyRule,
    Role,
    ServiceRequest,
    build_raw_state,
    semantic_lift,
)
from svcgov.ontology import AssertionBase, ConceptId, load_schema
from svcgov.orchestrator import GateFlags, OrchestratorConfig
from svcgov.transform import (
    AddSubservice,
    Attachment,
    TransformationGrammar,
    UpdateConstraint,
    VariantRule,
)

TEST_ONTOLOGY = """
prefix t urn:test
relation providesFunction Agent Function
relation requires Service Function
relation executes Service Function
relation notifies Service Interaction
relation locatedIn Agent Environment

concept Service t:Req
concept Function t:FA
concept Function t:FA1
refines t:FA1 t:FA
concept Function t:FB
concept Function t:FC
concept Function t:FOversight
concept Agent t:UnitA
concept Agent t:UnitA1
refines t:UnitA1 t:UnitA
concept Agent t:UnitB
concept Agent t:UnitC
concept Agent t:UnitSup
concept Environment t:Zone
concept Environment t:NoisyZone
concept Environment t:LoudZone
refines t:LoudZone t:NoisyZone
concept Interaction t:ObTrace
concept Interaction t:ObNote
param t:Req priority number
"""


def cid(text: str) -> ConceptId:
    return ConceptId.parse(text)


def chain_ontology(links: int, closed: bool = False) -> str:
    """A refinement chain ``d:C00000 refines d:C00001 refines ...`` whose
    child names sort before their parents', so a depth-first search from
    the first name walks every link; ``closed`` adds the link back to it."""
    names = [f"d:C{i:05d}" for i in range(links + 1)]
    lines = ["prefix d urn:deep"] + [f"concept Function {n}" for n in names]
    lines += [f"refines {child} {parent}" for child, parent in zip(names, names[1:])]
    if closed:
        lines.append(f"refines {names[-1]} {names[0]}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def schema():
    return load_schema(TEST_ONTOLOGY)


@pytest.fixture(scope="session")
def assertions(schema):
    individuals = {
        "req1": cid("t:Req"),
        "f.a": cid("t:FA"),
        "f.b": cid("t:FB"),
        "o.trace": cid("t:ObTrace"),
        "ua": cid("t:UnitA"),
        "ua1": cid("t:UnitA1"),
        "ub": cid("t:UnitB"),
        "uc": cid("t:UnitC"),
        "us": cid("t:UnitSup"),
        "f.c": cid("t:FC"),
        "f.oversight": cid("t:FOversight"),
    }
    facts = (
        ("requires", "req1", "f.a"),
        ("requires", "req1", "f.b"),
        ("executes", "req1", "f.b"),
        ("notifies", "req1", "o.trace"),
        ("providesFunction", "ua", "f.a"),
        ("providesFunction", "ua1", "f.a"),
        ("providesFunction", "ub", "f.b"),
        ("providesFunction", "uc", "f.c"),
        ("providesFunction", "us", "f.oversight"),
    )
    return AssertionBase(individuals=individuals, relation_facts=facts, parameter_facts=())


def make_component(component_id: str, concept: str, provides: tuple[str, ...]) -> Component:
    return Component(component_id, cid(concept), frozenset(cid(p) for p in provides))


UNIT_A = make_component("ua", "t:UnitA", ("t:FA",))
UNIT_A1 = make_component("ua1", "t:UnitA1", ("t:FA1",))
UNIT_B = make_component("ub", "t:UnitB", ("t:FB",))
UNIT_C = make_component("uc", "t:UnitC", ("t:FC",))
UNIT_SUP = make_component("us", "t:UnitSup", ("t:FOversight",))


def contract(
    entities: tuple[str, ...] = (), events: tuple[str, ...] = (), obligations: tuple[str, ...] = ()
) -> InterfaceContract:
    return InterfaceContract(
        entity_types=frozenset(cid(e) for e in entities),
        event_types=frozenset(cid(e) for e in events),
        obligations=frozenset(cid(o) for o in obligations),
    )


def chain_hypothesis(
    bindings: list[tuple[str, str, Component]],
    edge_contract: InterfaceContract | None = None,
    constraints: dict[str, float] | None = None,
    policy: tuple[PolicyRule, ...] = (),
) -> Hypothesis:
    """A linear pipeline: bindings are (role id, required function, component)."""
    edge_contract = edge_contract if edge_contract is not None else contract()
    roles = [Role(rid, frozenset({cid(req)})) for rid, req, _ in bindings]
    edges = [
        Edge(bindings[i][0], bindings[i + 1][0], edge_contract) for i in range(len(bindings) - 1)
    ]
    assignment = {rid: comp for rid, _, comp in bindings}
    return Hypothesis.build(roles, edges, assignment, policy, constraints or {})


@pytest.fixture()
def simple_h():
    return chain_hypothesis(
        [("r1", "t:FA", UNIT_A), ("r2", "t:FB", UNIT_B)],
        edge_contract=contract(entities=("t:FA",), obligations=("t:ObTrace",)),
        constraints={"latency": 10.0, "safety.margin": 1.0},
        policy=(
            PolicyRule((), "executes", "r1", cid("t:FA"), latency=1),
            PolicyRule((), "notifies", "r2", cid("t:ObTrace"), latency=1),
        ),
    )


def make_raw_state(
    time: int = 0,
    deadline: int = 10,
    battery: float = 0.9,
    flags: tuple[str, ...] = (),
    components: tuple[tuple[str, str, str], ...] = (
        ("ua", "t:UnitA", "ok"),
        ("ua1", "t:UnitA1", "ok"),
        ("ub", "t:UnitB", "ok"),
        ("uc", "t:UnitC", "ok"),
        ("us", "t:UnitSup", "ok"),
    ),
    zone_descriptors: tuple[str, ...] = ("t:Zone",),
):
    return build_raw_state(
        time=time,
        agents=[AgentState("bot", cid("t:UnitA"), True, battery, "z0")],
        components=[ComponentState(i, cid(c), h) for i, c, h in components],
        request=ServiceRequest.build(cid("t:Req"), {"priority": 1}, deadline),
        network={"z0": 0.8},
        safety_flags=flags,
        environment={"z0": [cid(d) for d in zone_descriptors]},
    )


@pytest.fixture()
def z(schema, assertions):
    return semantic_lift(make_raw_state(), schema, assertions)


def identity_spec(threshold: float = 0.9) -> IdentitySpec:
    return IdentitySpec(0.25, 0.4, 0.15, 0.2, threshold)


def invariant_core(threshold: float = 0.9, include_identity: bool = True) -> InvariantCore:
    return InvariantCore(
        identity=identity_spec(threshold),
        predicates=(
            SafetyPredicate("obligations-honored", "obligations-honored"),
            SafetyPredicate("components-live", "components-live"),
        ),
        include_identity=include_identity,
    )


def regime(
    label: str = "base",
    entry=(),
    task: float = 1.0,
    switching: float = 5.0,
    latency: float = 12.0,
    complexity: float = 50.0,
    reuse: float = 1.0,
) -> Regime:
    return Regime(
        label=label,
        weights=EvaluatorWeights(task, 1.0, 1.0, 1.0, reuse),
        budgets=RegimeBudgets(latency, switching, complexity),
        entry=entry,
    )


FALLBACK = AddSubservice(
    part=Hypothesis.build(
        roles=[Role("r_sup", frozenset({cid("t:FOversight")}))],
        assignment={"r_sup": UNIT_SUP},
        policy=(PolicyRule((), "notifies", "r_sup", cid("t:ObNote"), latency=1),),
    ),
    attach=(Attachment("r2", "r_sup", InterfaceContract(frozenset(), frozenset(), frozenset())),),
    rationale="supervise",
)


def make_grammar(
    max_candidates: int = 32,
    sites: str = "any",
    updates: tuple[UpdateConstraint, ...] = (UpdateConstraint("latency", 8.0),),
    addable: tuple[AddSubservice, ...] = (FALLBACK,),
    enabled: tuple[str, ...] = ("substitute", "add_subservice", "update_constraint"),
) -> TransformationGrammar:
    variants = {
        name: VariantRule(enabled=name in enabled, sites=sites)
        for name in ("substitute", "add_subservice", "remove_subservice", "rebind", "update_constraint")
    }
    return TransformationGrammar.build(
        variants=variants, addable=addable, constraint_updates=updates, max_candidates=max_candidates
    )


def make_config(
    schema,
    assertions,
    grammar: TransformationGrammar | None = None,
    capacity: float = 50.0,
    drift_bound: float = 50.0,
    core: InvariantCore | None = None,
    regimes: tuple[Regime, ...] | None = None,
    model: RegimeSwitchModel | None = None,
    flags: GateFlags = GateFlags(),
) -> OrchestratorConfig:
    return OrchestratorConfig(
        schema=schema,
        assertions=assertions,
        grammar=grammar if grammar is not None else make_grammar(),
        regimes=regimes if regimes is not None else (regime(),),
        core=core if core is not None else invariant_core(),
        prior=StructuralPrior(),
        capacity_budget=capacity,
        switch_model=model if model is not None else RegimeSwitchModel(),
        drift_bound=drift_bound,
        fallback=FALLBACK,
        flags=flags,
    )


@pytest.fixture()
def config(schema, assertions):
    return make_config(schema, assertions)


@pytest.fixture(scope="session")
def hospital():
    return load_pack("hospital")


@pytest.fixture(scope="session")
def retail():
    return load_pack("retail")


def pack_variant(name: str, events: list[dict], ticks: int):
    """A shipped pack rebuilt with different events, through full validation."""
    scenario, cfg = load_pack(name)
    ontology_text = (pack_dir(name) / "ontology.txt").read_text(encoding="utf-8")
    data = scenario_to_data(scenario, ontology_text)
    data["events"] = events
    data["ticks"] = ticks
    return scenario_from_data(data), cfg


def on_padded_schema(name: str, cfg: OrchestratorConfig) -> OrchestratorConfig:
    """``cfg`` on the pack's ontology plus a chain of unused concepts: an
    unequal schema on which every state of the pack lifts as before."""
    ontology_text = (pack_dir(name) / "ontology.txt").read_text(encoding="utf-8")
    padding = ["prefix pad urn:test:padding", "concept Function pad:C0", "concept Function pad:C1", "refines pad:C1 pad:C0"]
    padded = replace(cfg, schema=load_schema(ontology_text + "\n".join(padding) + "\n"))
    assert padded.schema != cfg.schema
    return padded


def cyclic_retail(cycles: int):
    """The retail pack with its noise onset repeated ``cycles`` times: the
    aisle turns loud and a unit degrades (the speech and the route unit by
    turns, so two states differ in the registry alone), two ticks later
    that unit fails, two ticks after that everything recovers and every
    third cycle the deadline tightens (so two states differ in the lift
    alone).  The drift allowance is stretched with the horizon, as the
    long-horizon benchmark does."""
    data = pack_data("retail")
    pack_ticks = data["ticks"]
    data["events"] = []
    for k in range(cycles):
        start, unit = 1 + 6 * k, ("speech_unit", "route_unit")[k % 2]
        loud = [["zone+", "aisle2", "env:LoudAisle"], ["health", unit, "degraded"], ["bandwidth", "aisle2", 0.4]]
        calm = [["zone-", "aisle2", "env:LoudAisle"], ["health", unit, "ok"], ["bandwidth", "aisle2", 0.6]]
        calm.append(["deadline", 12 if k % 3 == 2 else 15])
        data["events"] += [
            {"tick": start, "patches": loud},
            {"tick": start + 2, "patches": [["fail", unit, "runtime-failure"]]},
            {"tick": start + 4, "patches": calm},
        ]
    data["ticks"] = 2 + 6 * cycles
    scenario, cfg = pack_scenario("retail", data)
    return scenario, replace(cfg, drift_bound=cfg.drift_bound * data["ticks"] / pack_ticks)


def write_checksummed_store(path, entries: list) -> None:
    """A store file with a valid header and checksum around raw entries,
    so that only the entries themselves can be malformed."""
    body = "\n".join(["svcgov-memory v1", *(json.dumps(e) for e in entries)]) + "\n"
    path.write_text(body + f"checksum sha256:{sha256_hex(body)}\n", encoding="utf-8")
