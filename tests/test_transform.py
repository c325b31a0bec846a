"""Transformation grammar: application, candidate generation, diffing."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcgov.canon import canonical_dumps
from svcgov.errors import MalformedTransformation, NotReachable, UnknownSite
from svcgov.model import Hypothesis, type_soundness
from svcgov.transform import (
    AddSubservice,
    Attachment,
    Rebind,
    RemoveSubservice,
    Substitute,
    TransformationGrammar,
    UpdateConstraint,
    VariantRule,
    apply,
    diff,
    edit_distance,
    generate_candidates,
    transformation_from_data,
    transformation_key,
    transformation_to_data,
    variant_name,
)

from conftest import (
    FALLBACK,
    UNIT_A,
    UNIT_A1,
    UNIT_B,
    UNIT_C,
    chain_hypothesis,
    cid,
    contract,
    make_component,
    make_grammar,
    make_raw_state,
)
from svcgov.model import semantic_lift


class TestApply:
    def test_update_constraint_with_unchanged_bound_is_structural_identity(self, simple_h):
        out = apply(UpdateConstraint("latency", 10.0), simple_h)
        assert out == simple_h

    def test_substitution_changes_exactly_one_binding(self, hospital):
        scenario, _ = hospital
        h = scenario.initial_hypothesis
        new = next(c for c in scenario.registry if c.component_id == "r2_nav")
        out = apply(Substitute("r_nav", "r1_nav", new), h)
        assert out.binding("r_nav") == new
        unchanged = [rid for rid, _ in h.assignment if rid != "r_nav"]
        for rid in unchanged:
            assert out.binding(rid) == h.binding(rid)
        assert out.roles == h.roles and out.edges == h.edges and out.policy == h.policy

    def test_substitute_wrong_old_component_is_unknown_site(self, simple_h):
        with pytest.raises(UnknownSite):
            apply(Substitute("r1", "not-assigned", UNIT_A1), simple_h)
        with pytest.raises(UnknownSite):
            apply(Substitute("ghost", "ua", UNIT_A1), simple_h)

    def test_remove_sole_provider_applies_and_strips_coverage(self, schema, simple_h):
        out = apply(RemoveSubservice(frozenset({"r2"})), simple_h)
        assert "r2" not in out.role_ids()
        # application itself never certifies: the request's FB commitment is
        # now uncovered, which the invariance certifier will catch downstream
        assert type_soundness(out, schema).sound
        assert not any(cid("t:FB") in comp.provides for _, comp in out.assignment)

    def test_remove_unknown_role_is_unknown_site(self, simple_h):
        with pytest.raises(UnknownSite):
            apply(RemoveSubservice(frozenset({"ghost"})), simple_h)

    def test_add_subservice_is_idempotent(self, simple_h):
        once = apply(FALLBACK, simple_h)
        twice = apply(FALLBACK, once)
        assert once == twice
        assert once != simple_h

    def test_add_collision_with_different_content_is_malformed(self, simple_h):
        part = Hypothesis.build(
            roles=[type(simple_h.roles[0])("r1", frozenset({cid("t:FC")}))],
            assignment={"r1": UNIT_C},
        )
        tau = AddSubservice(part, (Attachment("r2", "r1", contract()),))
        with pytest.raises(MalformedTransformation):
            apply(tau, simple_h)

    def test_attachment_must_join_host_and_part(self, simple_h):
        part = chain_hypothesis([("new1", "t:FC", UNIT_C)])
        dangling = AddSubservice(part, (Attachment("new1", "new1", contract()),))
        with pytest.raises(UnknownSite):
            apply(dangling, simple_h)


def reference_attachment_refusal(tau: AddSubservice, h: Hypothesis) -> str | None:
    """The attachment checks that ``generate_candidates`` and ``_apply_add``
    each wrote out, before ``Attachment.joins`` stated them once: the
    refusal ``apply`` raised for a part whose roles are all new, if any."""
    existing, part_roles = set(h.role_ids()), set(tau.part.role_ids())
    for a in tau.attach:
        ends = {a.from_role, a.to_role}
        if not (ends & existing) or not (ends & part_roles):
            return f"attachment {a.from_role}->{a.to_role} must join an existing role and a part role"
        for end in ends:
            if end not in existing and end not in part_roles:
                return f"attachment references unknown role {end}"
    return None


def reference_generation_filter(proto: AddSubservice, h: Hypothesis) -> bool:
    existing, part_roles = set(h.role_ids()), set(proto.part.role_ids())
    if part_roles & existing:
        return False
    return all(
        ({a.from_role, a.to_role} & existing) and ({a.from_role, a.to_role} & part_roles) for a in proto.attach
    )


def reference_apply(tau, h: Hypothesis) -> Hypothesis:
    """Rebinding and constraint updates as they were written before ``apply``
    kept the already sorted tuples of ``h``: every part rebuilt and sorted
    again through ``Hypothesis.build``."""
    assignment, constraints = h.assignment_map(), h.constraint_map()
    if isinstance(tau, UpdateConstraint):
        constraints[tau.name] = tau.bound
    else:
        assignment[tau.role_id] = tau.new_component
    return Hypothesis.build(h.roles, h.edges, assignment, h.policy, constraints)


class TestApplyKeepsSortedParts:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rebinding_and_constraint_updates_equal_the_rebuilt_graph(self, hospital, retail, data):
        scenario, _ = data.draw(st.sampled_from([hospital, retail]))
        h = scenario.initial_hypothesis
        if data.draw(st.booleans()):  # a role left unbound, so a rebinding adds a binding
            h = Hypothesis.build(h.roles, h.edges, dict(h.assignment[1:]), h.policy, h.constraint_map())
        rid = data.draw(st.sampled_from(h.role_ids()))
        component = data.draw(st.sampled_from([UNIT_A, UNIT_B, UNIT_C, *(c for _, c in h.assignment)]))
        names = [n for n, _ in h.constraints] + ["aaa", "zzz", "speed"]
        bound = data.draw(st.floats(-5, 5, allow_nan=False))
        current = h.binding(rid)
        taus = [Rebind(rid, component), UpdateConstraint(data.draw(st.sampled_from(names)), bound)]
        if current is not None:
            taus.append(Substitute(rid, current.component_id, component))
        for tau in taus:
            applied, rebuilt = apply(tau, h), reference_apply(tau, h)
            assert applied == rebuilt and applied.canonical_text() == canonical_dumps(rebuilt.to_data())
            assert applied.digest() == rebuilt.digest()


class TestAttachmentRule:
    """Generation proposes exactly the addable parts that ``apply`` attaches
    without ``UnknownSite``, and both agree with the checks they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        part_roles=st.lists(st.sampled_from(["n1", "n2", "r2"]), min_size=1, max_size=2, unique=True),
        ends=st.lists(st.tuples(*[st.sampled_from(["r1", "r2", "n1", "n2", "ghost"])] * 2), max_size=3),
    )
    def test_generation_and_apply_agree_with_the_references(self, schema, part_roles, ends):
        from svcgov.ontology import AssertionBase

        h = chain_hypothesis([("r1", "t:FA", UNIT_A), ("r2", "t:FB", UNIT_B)])
        part = chain_hypothesis([(rid, "t:FC", UNIT_C) for rid in part_roles])
        proto = AddSubservice(part, tuple(Attachment(a, b, contract()) for a, b in ends))
        z = semantic_lift(make_raw_state(), schema, AssertionBase({}, (), ()))
        grammar = make_grammar(enabled=("add_subservice",), addable=(proto,))
        proposed = generate_candidates(h, z, grammar, []) == [proto]
        assert proposed == reference_generation_filter(proto, h)
        if set(part_roles) & set(h.role_ids()):
            return  # refused or kept as a repeated attachment, before any attachment is read
        refusal = reference_attachment_refusal(proto, h)
        assert refusal is None or "unknown role" not in refusal  # the second check could never fire
        try:
            apply(proto, h)
            assert refusal is None and proposed
        except UnknownSite as exc:
            assert str(exc) == refusal and not proposed


class TestGenerate:
    def test_all_variants_disabled_yields_empty_list(self, simple_h, z):
        grammar = make_grammar(enabled=())
        assert generate_candidates(simple_h, z, grammar, [UNIT_A1]) == []

    def test_exactly_min_k_max_substitutes_at_one_open_role(self, z):
        h = chain_hypothesis([("r1", "t:FA", UNIT_A)])
        registry = [
            make_component(f"alt{i}", "t:UnitA", ("t:FA",)) for i in range(5)
        ]
        grammar = make_grammar(enabled=("substitute",), max_candidates=32)
        out = generate_candidates(h, z, grammar, registry)
        assert len(out) == 5  # exhaustive oracle: every registry alternative
        capped = make_grammar(enabled=("substitute",), max_candidates=3)
        assert len(generate_candidates(h, z, capped, registry)) == 3

    def test_hospital_battery_tick_offers_the_four_option_families(self, hospital):
        scenario, cfg = hospital
        raw = scenario.initial_state
        for tick in range(3):
            raw, _ = scenario.patched(raw, tick)
        from dataclasses import replace

        x = replace(raw, time=2)
        z = semantic_lift(x, cfg.schema, cfg.assertions)
        from svcgov.orchestrator import registry_from_state

        registry = registry_from_state(x, cfg.assertions, cfg.schema)
        out = generate_candidates(scenario.initial_hypothesis, z, cfg.grammar, registry)
        keys = {transformation_to_data(t)["variant"] for t in out}
        assert {"substitute", "add_subservice", "update_constraint"} <= keys
        # the four case-study options: degrade speed, reroute, transfer, escalate
        names = {transformation_to_data(t).get("name") for t in out}
        assert {"speed", "latency"} <= names
        subs = {
            transformation_to_data(t)["new"]["component"]
            for t in out
            if transformation_to_data(t)["variant"] == "substitute"
        }
        assert "r2_nav" in subs

    def test_unhealthy_site_restriction(self, z):
        h = chain_hypothesis([("r1", "t:FA", UNIT_A), ("r2", "t:FB", UNIT_B)])
        grammar = make_grammar(enabled=("substitute",), sites="unhealthy")
        registry_all_ok = [UNIT_A, UNIT_B, UNIT_A1]
        assert generate_candidates(h, z, grammar, registry_all_ok) == []
        registry_a_gone = [UNIT_B, UNIT_A1]  # UNIT_A no longer healthy
        out = generate_candidates(h, z, grammar, registry_a_gone)
        assert out and all(transformation_to_data(t)["role"] == "r1" for t in out)

    def test_deterministic_generation(self, simple_h, z):
        grammar = make_grammar()
        registry = [UNIT_A1, UNIT_C, UNIT_B]
        one = generate_candidates(simple_h, z, grammar, registry)
        two = generate_candidates(simple_h, z, grammar, list(reversed(registry)))
        assert [canonical_dumps(transformation_to_data(t)) for t in one] == [
            canonical_dumps(transformation_to_data(t)) for t in two
        ]

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_grammar_closure_every_candidate_applies(self, seed):
        from svcgov.ontology import load_schema
        from svcgov.ontology import AssertionBase
        from conftest import TEST_ONTOLOGY

        schema = load_schema(TEST_ONTOLOGY)
        rng = random.Random(seed)
        h = chain_hypothesis(
            [("r1", "t:FA", rng.choice([UNIT_A, UNIT_A1])), ("r2", "t:FB", UNIT_B)],
            constraints={"latency": float(rng.randint(5, 15))},
        )
        z = semantic_lift(make_raw_state(), schema, AssertionBase({}, (), ()))
        registry = rng.sample([UNIT_A, UNIT_A1, UNIT_B, UNIT_C], rng.randint(0, 4))
        grammar = make_grammar(
            enabled=("substitute", "add_subservice", "remove_subservice", "update_constraint")
        )
        for tau in generate_candidates(h, z, grammar, registry):
            apply(tau, h)  # must never raise UnknownSite


class TestDiff:
    def test_diff_of_equal_hypotheses_is_empty(self, simple_h):
        assert diff(simple_h, simple_h) == []

    def test_single_substitution_inverts_exactly(self, simple_h):
        tau = Substitute("r1", "ua", UNIT_A1)
        h2 = apply(tau, simple_h)
        steps = diff(simple_h, h2)
        assert len(steps) == 1
        recovered = steps[0]
        assert isinstance(recovered, Substitute)
        assert (recovered.role_id, recovered.old_component_id, recovered.new_component) == (
            "r1",
            "ua",
            UNIT_A1,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_three_step_edits_replay(self, seed, simple_h):
        rng = random.Random(seed)
        h2 = simple_h
        for _ in range(3):
            choice = rng.random()
            if choice < 0.4:
                h2 = apply(UpdateConstraint(rng.choice(["latency", "x", "y"]), rng.randint(1, 9)), h2)
            elif choice < 0.7 and h2.binding("r1") is not None:
                current = h2.binding("r1")
                alt = UNIT_A1 if current.component_id == "ua" else UNIT_A
                h2 = apply(Substitute("r1", current.component_id, alt), h2)
            else:
                h2 = apply(FALLBACK, h2)
        replayed = simple_h
        for tau in diff(simple_h, h2):
            replayed = apply(tau, replayed)
        assert replayed == h2

    def test_constraint_removal_is_not_reachable(self, simple_h):
        stripped = Hypothesis.build(
            simple_h.roles, simple_h.edges, simple_h.assignment_map(), simple_h.policy, {}
        )
        with pytest.raises(NotReachable):
            diff(simple_h, stripped)

    def test_edge_rewire_between_kept_roles_is_not_reachable(self, simple_h):
        rewired = Hypothesis.build(
            simple_h.roles,
            [],
            simple_h.assignment_map(),
            simple_h.policy,
            simple_h.constraint_map(),
        )
        with pytest.raises(NotReachable):
            diff(simple_h, rewired)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_replay_soundness_for_single_transformations(self, seed):
        rng = random.Random(seed)
        h = chain_hypothesis(
            [("r1", "t:FA", UNIT_A), ("r2", "t:FB", UNIT_B)], constraints={"latency": 10.0}
        )
        tau = rng.choice(
            [
                Substitute("r1", "ua", UNIT_A1),
                UpdateConstraint("latency", float(rng.randint(1, 20))),
                UpdateConstraint("fresh", 3.0),
                RemoveSubservice(frozenset({"r2"})),
                FALLBACK,
            ]
        )
        h2 = apply(tau, h)
        replayed = h
        for step in diff(h, h2):
            replayed = apply(step, replayed)
        assert replayed == h2

    def test_edit_distance_counts_atomic_edits(self, simple_h):
        assert edit_distance(simple_h, simple_h) == 0
        one = apply(Substitute("r1", "ua", UNIT_A1), simple_h)
        assert edit_distance(simple_h, one) == 1
        added = apply(FALLBACK, simple_h)
        assert edit_distance(simple_h, added) == 1  # one role added


class TestSerialization:
    def test_round_trip_every_variant(self, simple_h):
        taus = [
            Substitute("r1", "ua", UNIT_A1, rationale="swap"),
            FALLBACK,
            RemoveSubservice(frozenset({"r1", "r2"}), rationale="strip"),
            UpdateConstraint("latency", 4.0, rationale="tighten"),
        ]
        for tau in taus:
            again = transformation_from_data(transformation_to_data(tau))
            assert again == tau

    def test_grammar_round_trip(self):
        grammar = make_grammar()
        again = TransformationGrammar.from_data(grammar.to_data())
        assert again == grammar

    def test_grammar_requires_positive_candidate_cap(self):
        with pytest.raises(MalformedTransformation):
            TransformationGrammar.build(variants={"substitute": VariantRule(True)}, max_candidates=0)

    def test_grammar_membership_ignores_rationale_tags(self):
        grammar = make_grammar(updates=(UpdateConstraint("latency", 8.0, rationale="a"),))
        assert grammar.allows(UpdateConstraint("latency", 8.0, rationale="b"))
        assert not grammar.allows(UpdateConstraint("latency", 9.0))

    def test_cached_key_is_the_uncached_serialization(self, hospital):
        scenario, cfg = hospital
        grammar, h = cfg.grammar, scenario.initial_hypothesis

        def uncached_key(tau) -> str:
            data = transformation_to_data(tau)
            del data["rationale"]
            return canonical_dumps(data)

        taus = [
            *grammar.addable,
            *grammar.constraint_updates,
            cfg.fallback,
            *(Rebind(rid, comp, rationale="r") for rid, _ in h.assignment for comp in scenario.registry),
            Substitute("r1", "ua", UNIT_A1, rationale="swap"),
            RemoveSubservice(frozenset({"r1", "r2"}), rationale="strip"),
            UpdateConstraint("latency", 0.1 + 0.2),
            UpdateConstraint(grammar.constraint_updates[0].name, 1e-7),
        ]
        for tau in taus:
            fresh = transformation_from_data(transformation_to_data(tau))
            keyed = transformation_from_data(transformation_to_data(tau))
            before = repr(keyed)
            assert transformation_key(keyed) == uncached_key(tau)
            assert transformation_key(keyed) == uncached_key(tau)  # served from the cache
            assert transformation_key(replace(keyed, rationale="other")) == transformation_key(keyed)
            assert keyed == fresh and hash(keyed) == hash(fresh)
            assert repr(keyed) == before and "_key" not in before
            # grammar membership against each prototype list, serialized afresh
            prototypes = {AddSubservice: grammar.addable, UpdateConstraint: grammar.constraint_updates}
            expected = grammar.rule(variant_name(tau)).enabled and (
                type(tau) not in prototypes or any(uncached_key(p) == uncached_key(tau) for p in prototypes[type(tau)])
            )
            assert grammar.allows(tau) == expected
