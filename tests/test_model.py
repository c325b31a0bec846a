"""Semantic lift, hypothesis typing, interface compatibility, composition."""

from __future__ import annotations

import dataclasses
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svcgov.canon import canonical_dumps, digest_of
from svcgov.certificates import CertContext, environment_digest
from svcgov.certify import admissible, certify_substitution
from svcgov.errors import IncompatibleInterface, TypingError, UnknownSite
from svcgov.evaluation import IdentityBreakdown, absolute_identity, commitments_of, identity_breakdown
from svcgov.memory import EMPTY_STORE
from svcgov.model import (
    GUARD_OPS,
    SIGNAL_NAMES,
    Component,
    Edge,
    Hypothesis,
    InterfaceContract,
    PolicyRule,
    RawPlatformState,
    Role,
    ServiceRequest,
    SignalCondition,
    SoundnessReport,
    _graph_shape_violations,
    build_raw_state,
    interface_compatible,
    semantic_lift,
    type_soundness,
)
from svcgov.ontology import Category, ConceptId, is_refinement
from svcgov.transform import AddSubservice, RemoveSubservice, Substitute, apply, compose

from conftest import (
    UNIT_A,
    UNIT_A1,
    UNIT_B,
    UNIT_C,
    chain_hypothesis,
    cid,
    contract,
    make_component,
    make_config,
    make_raw_state,
    regime,
)


class TestSemanticLift:
    def test_empty_platform_lifts_to_empty_sets(self, schema, assertions):
        raw = build_raw_state(
            time=0,
            agents=[],
            components=[],
            request=ServiceRequest.build(cid("t:Req"), {}, 5),
            network={},
            safety_flags=[],
            environment={},
        )
        z = semantic_lift(raw, schema, assertions)
        assert z.available_agents == frozenset()
        assert z.component_functions == frozenset()
        assert z.signals()["battery_margin"] == 1.0

    def test_unknown_component_concept_raises_typing_error(self, schema, assertions):
        raw = make_raw_state(components=(("ghost", "t:Missing", "ok"),))
        with pytest.raises(TypingError) as err:
            semantic_lift(raw, schema, assertions)
        assert "t:Missing" in str(err.value)

    def test_request_commitments_resolved_from_assertions(self, z):
        assert z.required_functions == frozenset({cid("t:FA"), cid("t:FB")})
        assert z.output_functions == frozenset({cid("t:FB")})
        assert z.interaction_state.pending_obligations == (cid("t:ObTrace"),)

    def test_failed_components_drop_out_of_component_functions(self, schema, assertions):
        raw = make_raw_state(components=(("ua", "t:UnitA", "failed"), ("ub", "t:UnitB", "ok")))
        z = semantic_lift(raw, schema, assertions)
        assert z.live_component_ids() == frozenset({"ub"})

    def test_noise_signal_via_refined_descriptor(self, schema, assertions):
        quiet = semantic_lift(make_raw_state(), schema, assertions)
        noisy = semantic_lift(
            make_raw_state(zone_descriptors=("t:Zone", "t:LoudZone")), schema, assertions
        )
        assert quiet.signals()["noise"] == 0.0
        assert noisy.signals()["noise"] == 1.0  # LoudZone refines NoisyZone

    def test_deadline_pressure_and_priority_signals(self, schema, assertions):
        z = semantic_lift(make_raw_state(deadline=4), schema, assertions)
        assert z.signals()["deadline_pressure"] == pytest.approx(0.2)
        assert z.signals()["user_priority"] == 1.0

    def test_param_unit_mismatch_raises(self, schema, assertions):
        raw = make_raw_state()
        bad = RawPlatformState.from_data(
            {**raw.to_data(), "request": {"class": "t:Req", "params": {"priority": [1, "kg"]}, "deadline": 5}}
        )
        with pytest.raises(TypingError) as err:
            semantic_lift(bad, schema, assertions)
        assert "unit" in str(err.value)

    def test_cached_state_digest_is_the_content_digest_and_not_part_of_the_value(self, schema, assertions):
        z, twin = (semantic_lift(make_raw_state(deadline=4), schema, assertions) for _ in range(2))
        assert z.digest() == digest_of(z.to_data())
        assert z.digest() == digest_of(z.to_data())  # served from the cache
        assert z._digest is not None and twin._digest is None
        assert z == twin and hash(z) == hash(twin)
        assert repr(z) == repr(twin) and "_digest" not in repr(z)
        assert z.to_data() == twin.to_data() and "_digest" not in z.to_data()
        derived = replace(z, safety_flags=frozenset({"wet_floor"}))  # the cache is not carried over
        assert derived.digest() == digest_of(derived.to_data()) != z.digest()

    def test_lift_idempotent_through_serialization_round_trip(self, schema, assertions):
        raw = make_raw_state(deadline=7, flags=("wet_floor",))
        direct = semantic_lift(raw, schema, assertions)
        reparsed = RawPlatformState.from_data(raw.to_data())
        assert reparsed == raw
        assert semantic_lift(reparsed, schema, assertions) == direct


class TestTypeSoundness:
    def test_single_role_exact_function_is_sound(self, schema):
        h = chain_hypothesis([("r1", "t:FA", UNIT_A)])
        assert type_soundness(h, schema).sound

    def test_refinement_accepted(self, schema):
        h = chain_hypothesis([("r1", "t:FA", UNIT_A1)])
        report = type_soundness(h, schema)
        # oracle: the provided function refines the requirement
        assert is_refinement(schema, cid("t:FA1"), cid("t:FA"))
        assert report.sound

    def test_missing_assignment_is_reported(self, schema):
        h = Hypothesis.build(roles=[Role("r1", frozenset({cid("t:FA")}))])
        report = type_soundness(h, schema)
        assert not report.sound
        assert any(code == "unassigned-role" for code, _ in report.violations)

    def test_non_refining_component_is_reported(self, schema):
        h = chain_hypothesis([("r1", "t:FA", UNIT_B)])
        report = type_soundness(h, schema)
        assert any(code == "function-unsatisfied" for code, _ in report.violations)

    def test_cycle_and_disconnection_detected(self, schema):
        a, b = Role("a", frozenset({cid("t:FA")})), Role("b", frozenset({cid("t:FB")}))
        cyclic = Hypothesis.build(
            roles=[a, b],
            edges=[Edge("a", "b", contract()), Edge("b", "a", contract())],
            assignment={"a": UNIT_A, "b": UNIT_B},
        )
        assert any(c == "graph-cycle" for c, _ in type_soundness(cyclic, schema).violations)
        disconnected = Hypothesis.build(roles=[a, b], assignment={"a": UNIT_A, "b": UNIT_B})
        assert any(
            c == "graph-disconnected" for c, _ in type_soundness(disconnected, schema).violations
        )

    def test_cyclic_and_disconnected_shapes_match_the_reference(self, schema):
        # two graphs of one shape with different elements each get the
        # reference's report, when first judged and when read again from
        # the schema's memo
        a, b, c = (Role(r, frozenset({cid("t:FA")})) for r in "abc")
        shapes = {
            "cyclic": [Edge("a", "b", contract()), Edge("b", "c", contract()), Edge("c", "a", contract())],
            "disconnected": [Edge("a", "b", contract())],
            "self-loop": [Edge("a", "a", contract()), Edge("a", "b", contract()), Edge("b", "c", contract())],
            "cyclic-and-disconnected": [Edge("a", "b", contract()), Edge("b", "a", contract())],
        }
        for name, edges in shapes.items():
            h = Hypothesis.build([a, b, c], edges, {"a": UNIT_A, "b": UNIT_A, "c": UNIT_A})
            twin = Hypothesis.build(
                [Role(r.role_id, frozenset({cid("t:FB")})) for r in (a, b, c)],
                [Edge(e.from_role, e.to_role, contract(obligations=("t:ObTrace",))) for e in edges],
                {"a": UNIT_B, "b": UNIT_C, "c": UNIT_B},
            )
            for graph in (h, h, twin, twin):
                assert type_soundness(graph, schema) == reference_soundness(graph, schema), name
            codes = [code for code, _ in type_soundness(twin, schema).violations]
            assert ("graph-cycle" in codes) == ("cyclic" in name or name == "self-loop"), name
            assert ("graph-disconnected" in codes) == ("disconnected" in name), name

    @given(st.sets(st.tuples(st.sampled_from("abcdexy"), st.sampled_from("abcdexy")), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_graph_cycle_is_a_role_reaching_itself(self, edges):
        # roles a-e are declared; an edge to or from x or y dangles and is
        # no service flow
        roles = "abcde"
        flow = {(a, b) for a, b in edges if a in roles and b in roles}

        def reaches_itself(start):  # along one or more edges between declared roles
            seen, stack = set(), [b for a, b in flow if a == start]
            while stack:
                cur = stack.pop()
                if cur not in seen:
                    seen.add(cur)
                    stack.extend(b for a, b in flow if a == cur)
            return start in seen

        h = Hypothesis.build(
            [Role(r, frozenset({cid("t:FA")})) for r in roles], [Edge(a, b, contract()) for a, b in sorted(edges)]
        )
        codes = [code for code, _ in _graph_shape_violations(h)]
        assert ("graph-cycle" in codes) == any(reaches_itself(r) for r in roles)

    def test_long_chain_is_sound(self, schema):
        bindings = [(f"r{i:05d}", "t:FA", UNIT_A) for i in range(1500)]
        assert type_soundness(chain_hypothesis(bindings), schema).sound

    def test_long_chain_closed_into_a_loop_is_a_cycle(self, schema):
        h = chain_hypothesis([(f"r{i:05d}", "t:FA", UNIT_A) for i in range(1500)])
        loop = Hypothesis.build(h.roles, h.edges + (Edge("r01499", "r00000", contract()),), h.assignment_map())
        assert type_soundness(loop, schema).violations == (("graph-cycle", "service-flow edges form a cycle"),)

    @pytest.mark.parametrize(
        "edges, first",
        [
            ([("a", "b"), ("b", "a")], ("graph-cycle", "service-flow edges form a cycle")),
            ([("a", "a"), ("a", "b")], ("graph-cycle", "service-flow edges form a cycle")),
            ([("b", "c"), ("c", "b")], ("graph-cycle", "service-flow edges form a cycle")),
            ([("a", "b")], ("graph-disconnected", "roles unreachable from a: c")),
            ([("a", "b"), ("b", "c"), ("a", "c")], None),
        ],
    )
    def test_first_graph_shape_violation(self, schema, edges, first):
        roles = [Role(r, frozenset({cid("t:FA")})) for r in "abc"]
        h = Hypothesis.build(
            roles, [Edge(a, b, contract()) for a, b in edges], {r: UNIT_A for r in "abc"}
        )
        violations = type_soundness(h, schema).violations
        assert (violations[0] if violations else None) == first

    def test_policy_signal_vocabulary_enforced(self, schema):
        from svcgov.model import SignalCondition

        h = chain_hypothesis(
            [("r1", "t:FA", UNIT_A)],
            policy=(
                PolicyRule(
                    (SignalCondition("warp", ">=", 1.0),), "executes", "r1", cid("t:FA")
                ),
            ),
        )
        assert any(c == "bad-policy-signal" for c, _ in type_soundness(h, schema).violations)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_verdict_equals_brute_force_invariant_check(self, seed):
        from svcgov.ontology import load_schema
        from conftest import TEST_ONTOLOGY

        schema = load_schema(TEST_ONTOLOGY)
        rng = random.Random(seed)
        pool = [UNIT_A, UNIT_A1, UNIT_B, UNIT_C]
        requirements = [cid("t:FA"), cid("t:FB"), cid("t:FC")]
        k = rng.randint(1, 3)
        roles = [Role(f"r{i}", frozenset({rng.choice(requirements)})) for i in range(k)]
        edges = [Edge(f"r{i}", f"r{i+1}", contract()) for i in range(k - 1)]
        assignment = {r.role_id: rng.choice(pool) for r in roles if rng.random() < 0.9}
        h = Hypothesis.build(roles, edges, assignment)

        # brute-force re-check of every invariant clause
        total = all(r.role_id in assignment for r in roles)
        functions_ok = all(
            any(is_refinement(schema, p, req) for p in assignment[r.role_id].provides)
            for r in roles
            if r.role_id in assignment
            for req in r.requires
        )
        connected = k == 1 or len(edges) == k - 1  # a chain is connected iff complete
        expected = total and functions_ok and connected
        assert type_soundness(h, schema).sound == expected


def reference_soundness(h: Hypothesis, schema) -> SoundnessReport:
    """Whole-graph reference for ``type_soundness``: every element of ``h``
    checked again on every call, nothing memoized, violations in the
    documented order."""
    violations: list[tuple[str, str]] = []
    role_ids = set(h.role_ids())
    assignment = h.assignment_map()

    def check_concept(c, want, where) -> bool:
        if not schema.declares(c):
            violations.append(("unknown-concept", f"{where}: undeclared concept {c}"))
            return False
        if want is not None and schema.category(c) is not want:
            violations.append(
                ("category-mismatch", f"{where}: {c} is {schema.category(c).value}, expected {want.value}")
            )
            return False
        return True

    for role in h.roles:
        for f in sorted(role.requires):
            check_concept(f, Category.FUNCTION, f"role {role.role_id} requirement")
    for rid in sorted(role_ids):
        if rid not in assignment:
            violations.append(("unassigned-role", f"role {rid} has no component assigned"))
    for rid in sorted(assignment):
        if rid not in role_ids:
            violations.append(("unknown-role", f"assignment references unknown role {rid}"))
    for rid, comp in h.assignment:
        role = h.role(rid)
        if role is None:
            continue
        ok = check_concept(comp.concept, None, f"component {comp.component_id}")
        for f in sorted(comp.provides):
            ok = check_concept(f, Category.FUNCTION, f"component {comp.component_id} provides") and ok
        if not ok:
            continue
        for needed in sorted(role.requires):
            if schema.declares(needed) and not schema.covers(comp.provides, needed):
                violations.append(
                    (
                        "function-unsatisfied",
                        f"role {rid}: component {comp.component_id} provides no refinement of {needed}",
                    )
                )
    for e in h.edges:
        for end in (e.from_role, e.to_role):
            if end not in role_ids:
                violations.append(("edge-endpoint-missing", f"edge {e.from_role}->{e.to_role}: unknown role {end}"))
        for c in sorted(e.contract.entity_types | e.contract.event_types):
            check_concept(c, None, f"edge {e.from_role}->{e.to_role} contract")
        for ob in sorted(e.contract.obligations):
            check_concept(ob, Category.INTERACTION, f"edge {e.from_role}->{e.to_role} obligation")
    for idx, rule in enumerate(h.policy):
        if rule.relation not in ("executes", "notifies"):
            violations.append(("bad-policy-relation", f"policy rule {idx}: unknown relation {rule.relation!r}"))
        if rule.actor_role not in role_ids:
            violations.append(("bad-policy-role", f"policy rule {idx}: unknown actor role {rule.actor_role}"))
        for cond in rule.guard:
            if cond.signal not in SIGNAL_NAMES:
                violations.append(("bad-policy-signal", f"policy rule {idx}: unknown signal {cond.signal!r}"))
            if cond.op not in GUARD_OPS:
                violations.append(("bad-policy-signal", f"policy rule {idx}: unknown operator {cond.op!r}"))
        if rule.latency < 0:
            violations.append(("bad-policy-latency", f"policy rule {idx}: negative latency"))
        want = Category.INTERACTION if rule.relation == "notifies" else Category.FUNCTION
        check_concept(rule.action_concept, want, f"policy rule {idx} action")
    violations.extend(_graph_shape_violations(h))
    return SoundnessReport(sound=not violations, violations=tuple(violations))


#: Concepts no pack declares, so that drawn elements can be unsound.
UNDECLARED = (cid("zz:Ghost"), cid("zz:Phantom"))
EDITS = ("substitute", "remove", "bind", "unbind", "add-role", "drop-role", "edge", "rule", "drop-rule", "constraint")


def _edit(data, h: Hypothesis, registry, concepts) -> Hypothesis:
    """One drawn edit of ``h``: a grammar transformation, or a raw edit that
    may break typing (a dangling edge, a rule for a missing role, a
    component providing an undeclared or wrong-category concept)."""
    roles, edges, policy = list(h.roles), list(h.edges), list(h.policy)
    assignment, constraints = h.assignment_map(), h.constraint_map()
    role_ids = st.sampled_from([*h.role_ids(), "ghost"])
    concept_sets = st.frozensets(concepts, max_size=3)
    components = st.one_of(
        st.sampled_from(registry),
        st.builds(Component, st.sampled_from(["cx", "cy"]), concepts, concept_sets),
    )
    kind = data.draw(st.sampled_from(EDITS))
    sites = [(rid, comp) for rid, comp in h.assignment if h.role(rid) is not None]
    if kind == "substitute" and sites:
        rid, old = data.draw(st.sampled_from(sites))
        return apply(Substitute(rid, old.component_id, data.draw(components)), h)
    if kind == "remove" and len(h.roles) > 1:
        return apply(RemoveSubservice(frozenset({data.draw(st.sampled_from(h.role_ids()))})), h)
    if kind == "bind":
        assignment[data.draw(role_ids)] = data.draw(components)
    elif kind == "unbind" and assignment:
        del assignment[data.draw(st.sampled_from(sorted(assignment)))]
    elif kind == "add-role":
        roles.append(Role(data.draw(st.sampled_from(["extra", *h.role_ids()])), data.draw(concept_sets)))
    elif kind == "drop-role" and roles:
        roles.pop(data.draw(st.integers(0, len(roles) - 1)))  # its edges, binding and rules stay
    elif kind == "edge":
        contract = InterfaceContract(data.draw(concept_sets), data.draw(concept_sets), data.draw(concept_sets))
        edges.append(Edge(data.draw(role_ids), data.draw(role_ids), contract))
    elif kind == "rule":
        guard = data.draw(
            st.lists(
                st.builds(
                    SignalCondition,
                    st.sampled_from(["deadline", "noise", "warp"]),
                    st.sampled_from(["<=", ">", "~"]),
                    st.just(0.5),
                ),
                max_size=2,
            )
        )
        relation = data.draw(st.sampled_from(["executes", "notifies", "observes"]))
        actor = data.draw(st.one_of(st.just("ghost"), role_ids))
        rule = PolicyRule(tuple(guard), relation, actor, data.draw(concepts), data.draw(st.integers(-1, 2)))
        policy.insert(data.draw(st.integers(0, len(policy))), rule)  # shifts the later rules' indices
    elif kind == "drop-rule" and policy:
        policy.pop(data.draw(st.integers(0, len(policy) - 1)))
    elif kind == "constraint":
        constraints[data.draw(st.sampled_from(["latency", "safety.x"]))] = data.draw(st.sampled_from([1.0, 2.5]))
    return Hypothesis.build(roles, edges, assignment, policy, constraints)


class TestSoundnessMatchesWholeGraphReference:
    """``type_soundness`` must give the reference's report, violation order
    included, for graphs reached by random edits of the pack hypotheses.
    The pack schemas are shared by every draw, so a graph met again is read
    from the report that the schema's memo kept for it."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_edit_sequences_on_pack_hypotheses(self, hospital, retail, data):
        scenario, cfg = data.draw(st.sampled_from([hospital, retail]))
        concepts = st.sampled_from([*sorted(cfg.schema.concepts), *UNDECLARED])
        registry = sorted({*scenario.registry, *(c for _, c in scenario.initial_hypothesis.assignment)}, key=repr)
        h = scenario.initial_hypothesis
        for _ in range(data.draw(st.integers(1, 8))):
            h = _edit(data, h, registry, concepts)
            assert type_soundness(h, cfg.schema) == reference_soundness(h, cfg.schema)


def reference_absolute_identity(spec, h: Hypothesis, z, schema) -> float:
    """The formula ``absolute_identity`` computed on its own before it became
    a comparison of commitment sets: coverage of the state's required and
    output functions, honored pending obligations, hard safety counted full."""
    required = frozenset(f for f in z.required_functions if schema.covers(_provided(h), f))
    outputs = frozenset(f for f in z.output_functions if schema.covers(_provided(h), f))
    pending = frozenset(z.interaction_state.pending_obligations)
    honored = pending & h.propagated_obligations()
    s_request = len(required) / len(z.required_functions) if z.required_functions else 1.0
    s_outputs = len(outputs) / len(z.output_functions) if z.output_functions else 1.0
    s_interactions = len(honored) / len(pending) if pending else 1.0
    return (
        spec.request_class_weight * s_request
        + spec.outputs_weight * s_outputs
        + spec.safety_weight * 1.0
        + spec.interactions_weight * s_interactions
    )


def reference_identity_breakdown(spec, before: Hypothesis, after: Hypothesis, z, schema) -> IdentityBreakdown:
    """``identity_breakdown`` written out side by side, with no shared
    commitment builder."""

    def kept(wanted):
        covered_before = frozenset(f for f in wanted if schema.covers(_provided(before), f))
        covered_after = frozenset(f for f in wanted if schema.covers(_provided(after), f))
        return len(covered_before & covered_after) / len(covered_before) if covered_before else 1.0

    safety_before = {n: b for n, b in before.constraints if n.startswith("safety.")}
    safety_after = {n: b for n, b in after.constraints if n.startswith("safety.")}
    s_safety = (
        sum(1 for n, b in safety_before.items() if n in safety_after and safety_after[n] <= b) / len(safety_before)
        if safety_before
        else 1.0
    )
    obligations = before.propagated_obligations()
    s_interactions = len(obligations & after.propagated_obligations()) / len(obligations) if obligations else 1.0
    s_request, s_outputs = kept(z.required_functions), kept(z.output_functions)
    total = (
        spec.request_class_weight * s_request
        + spec.outputs_weight * s_outputs
        + spec.safety_weight * s_safety
        + spec.interactions_weight * s_interactions
    )
    return IdentityBreakdown(s_request, s_outputs, s_safety, s_interactions, total)


def _provided(h: Hypothesis) -> frozenset:
    return frozenset(f for _, comp in h.assignment for f in comp.provides)


def reference_s2(h2: Hypothesis, sites, schema) -> bool:
    """S2 as an edge-by-edge loop over the substituted graph ``h2``, each
    contract type filtered by ``schema.declares`` (the loop that S2 ran
    before it became the graph's soundness): on a type-sound graph, every
    edge at a substituted site has its entity and event types covered and
    its obligations propagated."""
    if not type_soundness(h2, schema).sound:
        return False
    entities = schema.closure_mask(h2.entity_vocabulary())
    events = schema.closure_mask(h2.event_vocabulary())
    honored = h2.propagated_obligations()
    ok = True
    for edge in h2.edges:
        if edge.from_role not in sites and edge.to_role not in sites:
            continue
        if not all(schema.mask_covers(entities, t) for t in edge.contract.entity_types if schema.declares(t)):
            ok = False
        if not all(schema.mask_covers(events, t) for t in edge.contract.event_types if schema.declares(t)):
            ok = False
        if not edge.contract.obligations <= honored:
            ok = False
    return ok


def reference_s1(h: Hypothesis, sites, c2: Component, schema) -> bool:
    """S1 as the loop over the substituted sites' requirements that the
    shared coverage rule (``model.uncovered``) replaced."""
    s1_ok = True
    replacement = schema.cached_mask(c2.provides)
    for rid in sites:
        role = h.role(rid)
        assert role is not None
        for needed in sorted(role.requires):
            if not schema.mask_covers(replacement, needed):
                s1_ok = False
    return s1_ok


def reference_interface_compatible(upstream: Hypothesis, downstream: Hypothesis, contract, schema) -> bool:
    """Each boundary's masks built and checked in place, side by side."""
    for side in (upstream, downstream):
        entities = schema.closure_mask(side.entity_vocabulary())
        events = schema.closure_mask(side.event_vocabulary())
        if not all(schema.mask_covers(entities, t) for t in contract.entity_types):
            return False
        if not all(schema.mask_covers(events, t) for t in contract.event_types):
            return False
        if not contract.obligations <= side.propagated_obligations():
            return False
    return True


class TestAdmissibilityRulesMatchTheirReferences:
    """Absolute identity, the identity breakdown, S1, S2 and interface
    compatibility are each built from one shared rule (a commitment
    comparison, a coverage rule, the soundness report, a contract check);
    on edited pack hypotheses they must equal the formulas written out in
    full, to the bit."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_edit_sequences_on_pack_hypotheses(self, hospital, retail, data):
        scenario, cfg = data.draw(st.sampled_from([hospital, retail]))
        schema, spec = cfg.schema, cfg.core.identity
        z = semantic_lift(scenario.initial_state, schema, cfg.assertions)
        context = CertContext(cfg.default_regime().label, environment_digest(z, schema))
        concepts = st.sampled_from([*sorted(schema.concepts), *UNDECLARED])
        registry = sorted({*scenario.registry, *(c for _, c in scenario.initial_hypothesis.assignment)}, key=repr)
        h0 = h = scenario.initial_hypothesis
        for _ in range(data.draw(st.integers(1, 6))):
            h = _edit(data, h, registry, concepts)
            before, after = commitments_of(h0, z, schema), commitments_of(h, z, schema)
            assert absolute_identity(spec, z, after) == reference_absolute_identity(spec, h, z, schema)
            assert identity_breakdown(spec, before, after) == reference_identity_breakdown(spec, h0, h, z, schema)
            boundary = InterfaceContract(*(data.draw(st.frozensets(concepts, max_size=2)) for _ in range(3)))
            assert interface_compatible(h0, h, boundary, schema) == reference_interface_compatible(
                h0, h, boundary, schema
            )
            bound = sorted({comp for rid, comp in h.assignment if h.role(rid) is not None}, key=repr)
            if not bound:
                continue
            c1, c2 = data.draw(st.sampled_from(bound)), data.draw(st.sampled_from(registry))
            try:
                out = certify_substitution(
                    c1, c2, h, z, EMPTY_STORE, schema, cfg.core, cfg.switch_model, cfg.default_regime(), context
                )
            except UnknownSite:  # c1 is also bound at a role the edits dropped
                continue
            sites = {rid for rid, comp in h.assignment if comp.component_id == c1.component_id}
            h2 = h
            for rid in sorted(sites):
                h2 = apply(Substitute(rid, c1.component_id, c2), h2)
            assert out.evidence_map()["conditions"]["S1"] == reference_s1(h, sites, c2, schema)
            assert out.evidence_map()["conditions"]["S2"] == reference_s2(h2, sites, schema)
            assert out.evidence_map()["conditions"]["S2"] == type_soundness(h2, schema).sound

    def test_a_multi_site_substitution_is_judged_on_its_own_graph(self, schema, assertions, z):
        # ``uac`` covers both r1 (FA) and r3 (FC); the candidate binds UNIT_A
        # at r1 only and stays sound, while the substitution graph binds it
        # at r3 too, where FC is left uncovered
        uac = make_component("uac", "t:UnitC", ("t:FA", "t:FC"))
        h = chain_hypothesis([("r1", "t:FA", uac), ("r2", "t:FB", UNIT_B), ("r3", "t:FC", uac)])
        tau = Substitute("r1", "uac", UNIT_A)
        verdict = admissible(tau, h, z, regime(), EMPTY_STORE, make_config(schema, assertions))
        h2 = apply(tau, h)
        substituted = apply(Substitute("r3", "uac", UNIT_A), h2)
        assert type_soundness(h, schema).sound and type_soundness(h2, schema).sound
        evidence = verdict.substitution.violation.evidence_map()
        assert evidence["sites"] == ["r1", "r3"]
        s2 = evidence["conditions"]["S2"]
        assert s2 is type_soundness(substituted, schema).sound is reference_s2(substituted, {"r1", "r3"}, schema)
        assert s2 is False and evidence["conditions"]["S1"] is False


class TestInterfaceCompatibility:
    def test_identical_boundary_contract_on_both_sides(self, schema):
        shared = contract(entities=("t:FA",), events=("t:ObNote",), obligations=("t:ObTrace",))
        up = chain_hypothesis(
            [("u1", "t:FA", UNIT_A), ("u2", "t:FB", UNIT_B)], edge_contract=shared
        )
        down = chain_hypothesis(
            [("d1", "t:FA", UNIT_A1), ("d2", "t:FB", UNIT_B)], edge_contract=shared
        )
        assert interface_compatible(up, down, shared, schema)

    def test_dropped_obligation_breaks_compatibility(self, schema):
        shared = contract(obligations=("t:ObTrace",))
        up = chain_hypothesis(
            [("u1", "t:FA", UNIT_A), ("u2", "t:FB", UNIT_B)], edge_contract=shared
        )
        down = chain_hypothesis(
            [("d1", "t:FA", UNIT_A1), ("d2", "t:FB", UNIT_B)], edge_contract=contract()
        )
        assert not interface_compatible(up, down, shared, schema)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_chains_match_brute_force_inclusion(self, schema, seed):
        rng = random.Random(seed)
        entity_pool = [cid("t:FA"), cid("t:FB"), cid("t:FC")]
        obligation_pool = [cid("t:ObTrace"), cid("t:ObNote")]

        def random_part(prefix: str) -> Hypothesis:
            own = contract(
                entities=tuple(str(e) for e in rng.sample(entity_pool, rng.randint(0, 2))),
                obligations=tuple(str(o) for o in rng.sample(obligation_pool, rng.randint(0, 2))),
            )
            return chain_hypothesis(
                [
                    (f"{prefix}1", "t:FA", rng.choice([UNIT_A, UNIT_A1])),
                    (f"{prefix}2", "t:FB", UNIT_B),
                ],
                edge_contract=own,
            )

        up, down = random_part("u"), random_part("d")
        boundary = contract(
            entities=tuple(str(e) for e in rng.sample(entity_pool, rng.randint(0, 2))),
            obligations=tuple(str(o) for o in rng.sample(obligation_pool, rng.randint(0, 2))),
        )

        def covered(side: Hypothesis) -> bool:
            ents = side.entity_vocabulary()
            evts = side.event_vocabulary()
            return (
                all(any(is_refinement(schema, c, t) for c in ents) for t in boundary.entity_types)
                and all(any(is_refinement(schema, c, t) for c in evts) for t in boundary.event_types)
                and boundary.obligations <= side.propagated_obligations()
            )

        expected = covered(up) and covered(down)
        assert interface_compatible(up, down, boundary, schema) == expected


def reference_merge(parts) -> dict[str, float]:
    """The constraint merge loop that ``compose`` and ``_apply_add`` each
    wrote out before ``compose`` became a fold of ``AddSubservice``."""
    constraints: dict[str, float] = {}
    for part in parts:
        for name, bound in part.constraints:
            constraints[name] = min(bound, constraints.get(name, bound))
    return constraints


def reference_compose(parts, contracts, schema) -> Hypothesis:
    """``compose`` as it was written out before it became a fold of
    ``AddSubservice``: every part's roles, edges, bindings and policy
    concatenated, then the boundary edges, then the merged constraints.
    It accepts a part with no roles, which ``compose`` refuses."""
    if not parts:
        raise IncompatibleInterface("compose requires at least one part")
    if len(contracts) != len(parts) - 1:
        raise IncompatibleInterface(
            f"expected {len(parts) - 1} contracts for {len(parts)} parts, got {len(contracts)}"
        )
    seen_roles: set[str] = set()
    for part in parts:
        dup = seen_roles & set(part.role_ids())
        if dup:
            raise IncompatibleInterface(f"duplicate role ids across parts: {', '.join(sorted(dup))}")
        seen_roles |= set(part.role_ids())
    for i, boundary in enumerate(contracts):
        if not interface_compatible(parts[i], parts[i + 1], boundary, schema):
            raise IncompatibleInterface(f"boundary {i} ({i}->{i + 1}) violates its contract")

    roles: list[Role] = []
    edges: list[Edge] = []
    assignment: dict[str, Component] = {}
    policy: list[PolicyRule] = []
    for part in parts:
        roles.extend(part.roles)
        edges.extend(part.edges)
        assignment.update(part.assignment_map())
        policy.extend(part.policy)
    for i, boundary in enumerate(contracts):
        for sink in parts[i].sinks():
            for source in parts[i + 1].sources():
                edges.append(Edge(sink, source, boundary))

    return Hypothesis.build(
        roles=roles, edges=edges, assignment=assignment, policy=policy, constraints=reference_merge(parts)
    )


#: Constraint bounds with ties, signed zeros included, so that which of two
#: equal bounds wins shows in the result's repr.
BOUNDS = st.dictionaries(st.sampled_from(["latency", "safety.x", "speed"]), st.sampled_from([-0.0, 0.0, 2.5, 7.0]))


class TestCompose:
    def test_single_part_composition_is_identity(self, schema, simple_h):
        assert compose([simple_h], [], schema) == simple_h

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bounds=st.lists(BOUNDS, min_size=1, max_size=4), added=BOUNDS)
    def test_merges_equal_the_loop_they_replaced(self, schema, bounds, added):
        parts = [chain_hypothesis([(f"p{i}", "t:FA", UNIT_A)], constraints=b) for i, b in enumerate(bounds)]
        composed = compose(parts, [contract()] * (len(parts) - 1), schema)
        assert repr(composed.constraints) == repr(tuple(sorted(reference_merge(parts).items())))
        part = chain_hypothesis([("q", "t:FB", UNIT_B)], constraints=added)
        grown = apply(AddSubservice(part, ()), parts[0])
        assert repr(grown.constraints) == repr(tuple(sorted(reference_merge([parts[0], part]).items())))

    def test_tightest_constraint_wins(self, schema):
        a = chain_hypothesis([("a1", "t:FA", UNIT_A)], constraints={"latency": 10.0})
        b = chain_hypothesis([("b1", "t:FB", UNIT_B)], constraints={"latency": 7.0})
        both = compose([a, b], [contract()], schema)
        assert both.constraint_map()["latency"] == 7.0

    def test_four_part_pipeline_is_sound_with_summed_nodes(self, schema):
        parts = [
            chain_hypothesis([(f"p{i}", req, comp)])
            for i, (req, comp) in enumerate(
                [("t:FA", UNIT_A), ("t:FB", UNIT_B), ("t:FA", UNIT_A1), ("t:FC", UNIT_C)]
            )
        ]
        composed = compose(parts, [contract()] * 3, schema)
        assert len(composed.roles) == sum(len(p.roles) for p in parts)
        assert type_soundness(composed, schema).sound  # oracle: re-run soundness

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    def test_roleless_part_is_refused_by_its_index(self, schema, position):
        parts = [chain_hypothesis([(f"p{i}", "t:FA", UNIT_A)]) for i in range(3)]
        parts[position] = Hypothesis.build([])
        with pytest.raises(IncompatibleInterface, match=f"part {position} has no roles"):
            compose(parts, [contract()] * 2, schema)

    @settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fold_equals_the_concatenation_it_replaced(self, schema, data):
        # parts of one to three roles (a role-less part is refused by the
        # fold alone), chained or unlinked so that a part may have several
        # sinks and sources; a first role may reuse an id, a boundary may
        # carry an obligation that only some parts propagate, and one
        # contract too many may be drawn, so each refusal is reached
        loose, strict = contract(), contract(obligations=("t:ObTrace",))
        units = st.sampled_from([("t:FA", UNIT_A), ("t:FA", UNIT_A1), ("t:FB", UNIT_B), ("t:FC", UNIT_C)])
        parts = []
        for i in range(data.draw(st.integers(1, 6))):
            bindings = []
            for j in range(data.draw(st.integers(1, 3))):
                rid = data.draw(st.sampled_from([f"p{i}r{j}"] * 7 + (["shared"] if j == 0 else [])))
                bindings.append((rid, *data.draw(units)))
            edge_contract = data.draw(st.sampled_from([loose, strict]))
            part = chain_hypothesis(bindings, edge_contract=edge_contract, constraints=data.draw(BOUNDS))
            parts.append(replace(part, edges=()) if data.draw(st.booleans()) else part)
        n = len(parts) - 1 + data.draw(st.sampled_from([0, 0, 0, 0, 1]))
        contracts = [data.draw(st.sampled_from([loose, loose, loose, strict])) for _ in range(n)]
        try:
            expected = reference_compose(parts, contracts, schema)
        except IncompatibleInterface:
            with pytest.raises(IncompatibleInterface):
                compose(parts, contracts, schema)
            return
        composed = compose(parts, contracts, schema)
        assert composed == expected
        assert repr(composed.constraints) == repr(expected.constraints)
        assert composed.digest() == expected.digest()

    def test_duplicate_role_ids_rejected(self, schema):
        a = chain_hypothesis([("same", "t:FA", UNIT_A)])
        b = chain_hypothesis([("same", "t:FB", UNIT_B)])
        with pytest.raises(IncompatibleInterface):
            compose([a, b], [contract()], schema)

    def test_incompatible_boundary_names_the_failing_contract(self, schema):
        a = chain_hypothesis([("a1", "t:FA", UNIT_A)])
        b = chain_hypothesis([("b1", "t:FB", UNIT_B)])
        boundary = contract(obligations=("t:ObTrace",))  # neither side carries it
        with pytest.raises(IncompatibleInterface) as err:
            compose([a, b], [boundary], schema)
        assert "boundary 0" in str(err.value)

    def test_associative_up_to_role_identity(self, schema):
        a = chain_hypothesis([("a1", "t:FA", UNIT_A)])
        b = chain_hypothesis([("b1", "t:FB", UNIT_B)])
        c = chain_hypothesis([("c1", "t:FC", UNIT_C)])
        c1, c2 = contract(), contract()
        left = compose([compose([a, b], [c1], schema), c], [c2], schema)
        right = compose([a, compose([b, c], [c2], schema)], [c1], schema)
        flat = compose([a, b, c], [c1, c2], schema)
        assert left == flat
        assert right == flat

    def test_contract_obligations_appear_in_propagated_set(self, schema):
        a = chain_hypothesis(
            [("a1", "t:FA", UNIT_A)],
            policy=(PolicyRule((), "notifies", "a1", cid("t:ObTrace")),),
        )
        b = chain_hypothesis(
            [("b1", "t:FB", UNIT_B)],
            policy=(PolicyRule((), "notifies", "b1", cid("t:ObTrace")),),
        )
        boundary = contract(obligations=("t:ObTrace",))
        composed = compose([a, b], [boundary], schema)
        assert boundary.obligations <= composed.propagated_obligations()


class TestSerialization:
    def test_hypothesis_round_trip(self, simple_h):
        assert Hypothesis.from_data(simple_h.to_data()) == simple_h
        assert Hypothesis.from_data(simple_h.to_data()).digest() == simple_h.digest()

    def test_edges_sort_by_ends_then_contract_text(self):
        roles = [Role(r, frozenset({cid("t:FA")})) for r in "abc"]
        loud, quiet = contract(entities=("t:FB",)), contract(entities=("t:FA",))
        edges = [Edge("b", "c", quiet), Edge("a", "b", loud), Edge("a", "b", quiet)]
        for order in (edges, edges[::-1]):
            h = Hypothesis.build(roles, order)
            assert h.edges == (Edge("a", "b", quiet), Edge("a", "b", loud), Edge("b", "c", quiet))
            distinct = Hypothesis.build(roles, [e for e in order if e.contract == quiet])
            assert distinct.edges == (Edge("a", "b", quiet), Edge("b", "c", quiet))

    def test_digest_changes_with_content(self, simple_h):
        other = chain_hypothesis([("r1", "t:FA", UNIT_A1), ("r2", "t:FB", UNIT_B)])
        assert other.digest() != simple_h.digest()

    def test_cached_digest_is_the_content_digest(self, simple_h):
        simple_h.digest()  # a cached digest must not leak into derived hypotheses
        for h in (
            chain_hypothesis([("r1", "t:FA", UNIT_A1), ("r2", "t:FB", UNIT_B)]),
            Hypothesis.from_data(simple_h.to_data()),
            apply(Substitute("r1", "ua", UNIT_A1), simple_h),
            replace(simple_h, constraints=(("latency", 3.0),)),
        ):
            assert h.digest() == digest_of(h.to_data())
            assert h.digest() == digest_of(h.to_data())  # served from the cache

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_composed_digest_is_the_whole_graph_digest(self, data):
        text = st.text(alphabet=st.sampled_from('ab"\\é\u2028\x00 '), max_size=4)
        concepts = st.builds(ConceptId, text.filter(bool), text.filter(bool))
        floats = st.one_of(
            st.sampled_from([0.1 + 0.2, 1e-7, -0.0, 1e300]), st.floats(allow_nan=False, allow_infinity=False)
        )
        concept_sets = st.frozensets(concepts, max_size=2)
        contract = st.builds(InterfaceContract, concept_sets, concept_sets, concept_sets)
        guard = st.lists(st.builds(SignalCondition, text, st.sampled_from(GUARD_OPS), floats), max_size=2)
        h = Hypothesis.build(
            roles=data.draw(st.lists(st.builds(Role, text, concept_sets), max_size=4)),
            edges=data.draw(st.lists(st.builds(Edge, text, text, contract), max_size=4)),
            assignment=data.draw(st.dictionaries(text, st.builds(Component, text, concepts, concept_sets))),
            policy=data.draw(
                st.lists(st.builds(PolicyRule, guard.map(tuple), text, text, concepts, st.integers(-3, 3)), max_size=3)
            ),
            constraints=data.draw(st.dictionaries(text, floats, max_size=4)),
        )
        assert h.canonical_text() == canonical_dumps(h.to_data())
        assert h.digest() == digest_of(h.to_data())
        # a binding is the assignment's entry, for bound and unbound role ids alike
        for rid in (*h.role_ids(), *(rid for rid, _ in h.assignment), data.draw(text)):
            assert h.binding(rid) is h.assignment_map().get(rid)

    def test_composed_digest_of_edge_cases(self):
        cases = [
            Hypothesis.build([]),
            Hypothesis.build([], constraints={'q"uote': 0.1 + 0.2, "tiny": 1e-7, "zero": -0.0, "ünï": 3}),
            Hypothesis.build(
                [Role('r"\\é', frozenset({cid("t:FA")}))],
                assignment={'r"\\é': UNIT_A, "\u00e9": UNIT_B},
            ),
        ]
        for h in cases:
            assert h.canonical_text() == canonical_dumps(h.to_data())
            assert h.digest() == digest_of(h.to_data())

    def test_cache_takes_no_part_in_equality_hash_or_repr(self, simple_h):
        fresh = Hypothesis.from_data(simple_h.to_data())
        cached = Hypothesis.from_data(simple_h.to_data())
        before = (repr(cached), cached.to_data())
        cached.digest()
        assert fresh == cached and hash(fresh) == hash(cached)
        assert (repr(cached), cached.to_data()) == before
        assert "digest" not in repr(cached) and "_text" not in repr(cached)

    def test_fact_caches_take_no_part_in_the_value(self, schema, assertions, simple_h):
        # the cached live-component and pending-obligation sets of a state
        # and the hashes of a hypothesis's elements are kept outside the
        # dataclass fields; a hypothesis works out its propagated
        # obligations on each read, which must leave its value alone too
        lift = lambda: semantic_lift(make_raw_state(), schema, assertions)  # noqa: E731
        rebuilt = lambda: Hypothesis.from_data(simple_h.to_data())  # noqa: E731
        cases = [
            (lift, lambda z: (z.live_component_ids(), z.pending_obligations())),
            (rebuilt, lambda h: h.propagated_obligations()),
        ]
        for kind in ("roles", "edges", "policy"):
            cases.append((lambda kind=kind: getattr(rebuilt(), kind)[0], lambda e: (hash(e), e.canonical_text())))
        cases.append((lambda: rebuilt().assignment[0][1], lambda c: (hash(c), c.canonical_text())))
        for make, warm in cases:
            fresh, cached, reference = make(), make(), make()
            before = (repr(cached), cached.to_data(), dataclasses.fields(cached))
            assert warm(cached) == warm(cached) == warm(reference)
            assert fresh == cached and hash(fresh) == hash(cached)
            assert (repr(cached), cached.to_data(), dataclasses.fields(cached)) == before
            values = tuple(getattr(cached, f.name) for f in dataclasses.fields(cached) if f.compare)
            assert hash(cached) == hash(values)
        z = lift()
        assert z.live_component_ids() == frozenset(c for c, _ in z.component_functions)
        assert z.pending_obligations() == frozenset(z.interaction_state.pending_obligations)

    def test_store_bytes_do_not_depend_on_cached_digests(self, tmp_path, simple_h):
        from svcgov.memory import EMPTY_STORE, MemoryRecord, persist, record

        graph = Hypothesis.from_data(simple_h.to_data())
        rec = MemoryRecord("base", simple_h.digest(), None, "success", None)
        store = record(EMPTY_STORE, rec, graph=graph)
        uncached = replace(store, graphs=tuple((d, Hypothesis.from_data(g.to_data())) for d, g in store.graphs))
        persist(uncached, tmp_path / "a.store")
        for _, g in uncached.graphs:
            g.digest()
        persist(uncached, tmp_path / "b.store")
        assert (tmp_path / "a.store").read_bytes() == (tmp_path / "b.store").read_bytes()

    def test_semantic_state_serializes_canonically(self, z):
        assert z.digest() == z.digest()
        data = z.to_data()
        assert data["signals"]["deadline"] == 10.0
