"""Evaluators, identity functional, invariant core, structural prior."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcgov.errors import ConfigError, MalformedTransformation, UnknownSite
from svcgov.evaluation import (
    EvaluatorWeights,
    IdentitySpec,
    InvariantCore,
    SafetyPredicate,
    ScoreBreakdown,
    StructuralPrior,
    commitments_of,
    core_value,
    detect_regime,
    evaluate,
    identity_breakdown,
    identity_score,
    prior_complexity,
)
from svcgov.certify import CandidateFacts, StepFacts, Transition
from svcgov.model import (
    Hypothesis,
    InteractionState,
    PolicyRule,
    SemanticState,
    SignalCondition,
    semantic_lift,
    type_soundness,
)
from svcgov.ontology import OntologySchema, load_schema
from svcgov.transform import Rebind, RemoveSubservice, Substitute, UpdateConstraint, apply

from conftest import (
    FALLBACK,
    TEST_ONTOLOGY,
    UNIT_A,
    UNIT_A1,
    UNIT_B,
    UNIT_C,
    UNIT_SUP,
    chain_hypothesis,
    cid,
    contract,
    identity_spec,
    invariant_core,
    make_raw_state,
    regime,
)


class TestEvaluate:
    def test_total_is_exactly_the_weighted_sum(self, schema, simple_h, z):
        e = regime()
        soundness = type_soundness(simple_h, schema)
        breakdown = evaluate(e, simple_h, z, reuse_term=0.3, soundness=soundness, switching_cost=1.0)
        w = e.weights
        expected = (
            w.task * breakdown.j_task
            + w.safety * breakdown.j_safety
            + w.semantic * breakdown.j_semantic
            + w.cost * breakdown.j_cost
            + w.reuse * breakdown.j_reuse
        )
        assert breakdown.total == pytest.approx(expected, abs=0)

    def test_equal_components_give_equal_totals(self, schema, simple_h, z):
        e = regime()
        one = evaluate(e, simple_h, z, 0.0, type_soundness(simple_h, schema))
        two = evaluate(e, simple_h, z, 0.0, type_soundness(simple_h, schema))
        assert one == two

    def test_task_only_weights_are_linear(self, schema, simple_h, z):
        only_task = regime(task=2.0)
        only_task = type(only_task)(
            label="t",
            weights=EvaluatorWeights(2.0, 0.0, 0.0, 0.0, 0.0),
            budgets=only_task.budgets,
        )
        breakdown = evaluate(only_task, simple_h, z, 0.0, type_soundness(simple_h, schema))
        assert breakdown.total == pytest.approx(2.0 * breakdown.j_task)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_scaling_weights_scales_totals_and_keeps_argmax(self, c):
        weights = EvaluatorWeights(1.0, 2.0, 0.5, 1.5, 0.25)
        scaled = EvaluatorWeights(*(c * w for w in (1.0, 2.0, 0.5, 1.5, 0.25)))
        values = [(0.4, 0.9, 1.0, 0.3, 0.1), (0.8, 0.2, 1.0, 0.6, 0.0), (0.5, 0.5, 0.5, 0.5, 0.5)]
        base = [ScoreBreakdown(*v, weights=weights).total for v in values]
        up = [ScoreBreakdown(*v, weights=scaled).total for v in values]
        for b, u in zip(base, up):
            assert u == pytest.approx(c * b, rel=1e-9)
        assert max(range(3), key=lambda i: base[i]) == max(range(3), key=lambda i: up[i])

    def test_emergency_penalizes_delay_harder_than_routine(self, schema, assertions):
        # the degrade-speed option under two regimes that share every weight
        # except the task weight; emergency also runs a tighter latency budget
        slow = chain_hypothesis(
            [("r1", "t:FA", UNIT_A)],
            constraints={"speed": 0.5},
            policy=(PolicyRule((), "executes", "r1", cid("t:FA"), latency=4),),
        )
        z = semantic_lift(make_raw_state(deadline=10), schema, assertions)
        routine = regime(label="routine", task=1.0, latency=14.0)
        emergency = regime(label="emergency", task=3.0, latency=8.0)
        r_score = evaluate(routine, slow, z, 0.0, type_soundness(slow, schema))
        e_score = evaluate(emergency, slow, z, 0.0, type_soundness(slow, schema))
        # hand-computed: stretched latency 4/0.5 = 8
        #   routine: effective deadline 10 -> j_task = 2/11
        #   emergency: effective deadline 8 -> j_task = 0
        assert r_score.j_task == pytest.approx(2 / 11)
        assert e_score.j_task == 0.0
        # only the task term differs, so the emergency total is strictly lower
        assert e_score.total < r_score.total
        # and restoring speed buys emergency more than it buys routine
        fast = apply(UpdateConstraint("speed", 1.0), slow)
        gap_routine = evaluate(routine, fast, z, 0.0, type_soundness(fast, schema)).total - r_score.total
        gap_emergency = evaluate(emergency, fast, z, 0.0, type_soundness(fast, schema)).total - e_score.total
        assert gap_emergency > gap_routine

    def test_reuse_term_is_clamped(self, schema, simple_h, z):
        e = regime()
        breakdown = evaluate(e, simple_h, z, reuse_term=-7.0, soundness=type_soundness(simple_h, schema))
        assert breakdown.j_reuse == -1.0

    def test_unsound_hypothesis_grades_semantic_below_one(self, schema, z):
        unsound = chain_hypothesis([("r1", "t:FA", UNIT_B)])
        breakdown = evaluate(regime(), unsound, z, 0.0, type_soundness(unsound, schema))
        assert breakdown.j_semantic < 1.0

    def test_weights_must_not_be_all_zero(self):
        with pytest.raises(ConfigError):
            EvaluatorWeights(0, 0, 0, 0, 0)

    @pytest.mark.parametrize("weights", [(1e308, 1e308, 0, 0, 0), (float("nan"), 1, 1, 1, 1), (float("inf"), 1, 1, 1, 1)])
    def test_weights_must_sum_to_a_finite_number(self, weights):
        with pytest.raises(ConfigError, match="finite"):
            EvaluatorWeights(*weights)

    @given(
        weights=st.lists(st.floats(min_value=0.0, max_value=1.7976931348623157e308), min_size=5, max_size=5),
        components=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=5, max_size=5),
    )
    def test_every_accepted_score_is_finite(self, weights, components):
        # the regret oracle screens candidates in descending score order,
        # which finds the best score the way a max does only if no score is
        # NaN: accepted weights and component scores in [-1, 1] keep every
        # total finite
        try:
            w = EvaluatorWeights(*weights)
        except ConfigError:
            return
        assert math.isfinite(ScoreBreakdown(*components, w).total)

    def test_components_stay_in_range_for_unbounded_inputs(self, schema, simple_h, z):
        soundness = type_soundness(simple_h, schema)
        for reuse, charge in ((float("inf"), float("inf")), (float("-inf"), 1e308)):
            breakdown = evaluate(regime(), simple_h, z, reuse, soundness, switching_cost=charge)
            assert breakdown.j_cost == 0.0 and abs(breakdown.j_reuse) == 1.0
            assert math.isfinite(breakdown.total)


class TestIdentity:
    def test_identity_of_unchanged_hypothesis_is_one(self, schema, simple_h, z):
        assert identity_score(identity_spec(), simple_h, simple_h, z, schema) == 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_identity_ceiling_holds_for_random_hypotheses(self, seed):
        from svcgov.ontology import load_schema
        from svcgov.ontology import AssertionBase
        from conftest import TEST_ONTOLOGY

        schema = load_schema(TEST_ONTOLOGY)
        rng = random.Random(seed)
        h = chain_hypothesis(
            [("r1", "t:FA", rng.choice([UNIT_A, UNIT_A1])), ("r2", "t:FB", UNIT_B)],
            constraints={"safety.m": float(rng.randint(1, 5))} if rng.random() < 0.5 else {},
        )
        z = semantic_lift(make_raw_state(deadline=rng.randint(0, 9)), schema, AssertionBase({}, (), ()))
        assert identity_score(identity_spec(), h, h, z, schema) == 1.0

    def test_request_coverage_collapse_costs_its_weight(self, schema, z, simple_h):
        # replace the sole FA provider with an FC unit: FA coverage is lost,
        # FB (also the output) is untouched
        broken = apply(Substitute("r1", "ua", UNIT_C), simple_h)
        spec = identity_spec()
        breakdown = identity_breakdown(spec, commitments_of(simple_h, z, schema), commitments_of(broken, z, schema))
        assert breakdown.request_class == 0.5  # one of two required functions kept
        assert breakdown.outputs == 1.0
        assert breakdown.total == pytest.approx(1 - spec.request_class_weight * 0.5)

    def test_handoff_between_equivalent_units_preserves_identity(self, hospital):
        scenario, cfg = hospital
        z = semantic_lift(scenario.at(2)[0], cfg.schema, cfg.assertions)
        h = scenario.initial_hypothesis
        new = next(c for c in scenario.registry if c.component_id == "r2_nav")
        after = apply(Substitute("r_nav", "r1_nav", new), h)
        # oracle: explicit set comparisons; everything covered before is covered after
        assert after.propagated_obligations() == h.propagated_obligations()
        assert identity_score(cfg.core.identity, h, after, z, cfg.schema) == 1.0

    def test_safety_constraint_loosening_costs_the_safety_subscore(self, schema, z, simple_h):
        loosened = apply(UpdateConstraint("safety.margin", 5.0), simple_h)
        before = commitments_of(simple_h, z, schema)
        breakdown = identity_breakdown(identity_spec(), before, commitments_of(loosened, z, schema))
        assert breakdown.safety == 0.0
        tightened = apply(UpdateConstraint("safety.margin", 0.5), simple_h)
        assert identity_breakdown(identity_spec(), before, commitments_of(tightened, z, schema)).safety == 1.0

    def test_obligation_drop_costs_the_interaction_subscore(self, schema, z, simple_h):
        stripped = apply(RemoveSubservice(frozenset({"r2"})), simple_h)
        before, after = commitments_of(simple_h, z, schema), commitments_of(stripped, z, schema)
        breakdown = identity_breakdown(identity_spec(), before, after)
        assert breakdown.interactions < 1.0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            IdentitySpec(0.5, 0.5, 0.5, 0.5, 0.9)
        with pytest.raises(ConfigError):
            IdentitySpec(0.25, 0.25, 0.25, 0.25, 0.0)


    def test_shared_commitments_are_read_only(self, schema, simple_h, z):
        # one value is kept per key and read by every later step, run and
        # scan that meets it, so no reader may write into its safety bounds
        commitments = commitments_of(simple_h, z, schema)
        assert commitments is commitments_of(simple_h, z, schema)
        with pytest.raises(TypeError):
            commitments.safety["safety.margin"] = 0.0
        assert dict(commitments.safety) == {"safety.margin": 1.0}


class TestCore:
    def test_maximal_core_value(self, schema, z, simple_h):
        report = core_value(invariant_core(), simple_h, z, schema, commitments_of(simple_h, z, schema))
        assert report.value == pytest.approx(2.0)
        assert report.passed

    def test_threshold_is_inclusive_at_eta(self, schema, z, simple_h):
        # absolute identity of simple_h is exactly 1.0; a core with eta = 1.0
        # must still pass (inclusive comparison)
        report = core_value(invariant_core(threshold=1.0), simple_h, z, schema, commitments_of(simple_h, z, schema))
        assert report.identity_value == pytest.approx(1.0)
        assert report.passed

    def test_dropped_notification_obligation_fails_the_core(self, schema, z, simple_h):
        # the pending ObTrace obligation must be honored by the hypothesis
        stripped = Hypothesis.build(
            simple_h.roles, [], simple_h.assignment_map(), (), simple_h.constraint_map()
        )
        report = core_value(invariant_core(), stripped, z, schema, commitments_of(stripped, z, schema))
        assert not report.passed
        assert dict(report.predicate_results)["obligations-honored"] is False

    def test_dead_component_fails_components_live(self, schema, assertions, simple_h):
        raw = make_raw_state(components=(("ua", "t:UnitA", "failed"), ("ub", "t:UnitB", "ok")))
        z = semantic_lift(raw, schema, assertions)
        report = core_value(invariant_core(), simple_h, z, schema, commitments_of(simple_h, z, schema))
        assert dict(report.predicate_results)["components-live"] is False
        assert not report.passed

    def test_identity_excluded_from_core_stops_gating(self, schema, assertions, simple_h):
        # strip every provider of the FB output: absolute identity drops
        broken = apply(Substitute("r2", "ub", UNIT_C), simple_h)
        z = semantic_lift(make_raw_state(), schema, assertions)
        commitments = commitments_of(broken, z, schema)
        gated = core_value(invariant_core(), broken, z, schema, commitments)
        ungated = core_value(invariant_core(include_identity=False), broken, z, schema, commitments)
        assert not gated.passed
        assert ungated.passed  # predicates alone hold
        assert ungated.identity_value < 0.9

    def test_core_requires_at_least_one_predicate(self):
        with pytest.raises(ConfigError):
            InvariantCore(identity=identity_spec(), predicates=())

    def test_flag_predicates(self, schema, assertions, simple_h):
        raw = make_raw_state(flags=("estop",))
        z = semantic_lift(raw, schema, assertions)
        absent = SafetyPredicate("no-estop", "flag-absent", (("flag", "estop"),))
        assert absent.check(simple_h, z, schema, commitments_of(simple_h, z, schema)) is False
        needs = SafetyPredicate(
            "estop-needs-oversight",
            "flag-requires-function",
            (("flag", "estop"), ("function", "t:FOversight")),
        )
        assert needs.check(simple_h, z, schema, commitments_of(simple_h, z, schema)) is False
        from conftest import FALLBACK

        supervised = apply(FALLBACK, simple_h)
        assert needs.check(supervised, z, schema, commitments_of(supervised, z, schema)) is True

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("flag-absent", ()),
            ("flag-absent", (("flag", 3),)),
            ("flag-requires-function", (("flag", "estop"),)),
            ("flag-requires-function", (("flag", "estop"), ("function", ["t:FOversight"]))),
            ("flag-requires-function", (("flag", "estop"), ("function", "FOversight"))),
            ("flag-requires-function", (("function", "t:FOversight"),)),
        ],
    )
    def test_bad_predicate_parameters_are_refused_at_construction(self, kind, params):
        with pytest.raises(ConfigError, match="'x'"):
            SafetyPredicate("x", kind, params)

    def test_predicate_check_is_built_once(self, schema, assertions, simple_h, monkeypatch):
        import svcgov.evaluation as evaluation

        built = []
        factory = evaluation.PREDICATE_KINDS["flag-absent"]
        monkeypatch.setitem(
            evaluation.PREDICATE_KINDS, "flag-absent", lambda params: built.append(params) or factory(params)
        )
        absent = SafetyPredicate("no-estop", "flag-absent", (("flag", "estop"),))
        z = semantic_lift(make_raw_state(flags=("estop",)), schema, assertions)
        assert [absent.check(simple_h, z, schema, commitments_of(simple_h, z, schema)) for _ in range(3)] == [False] * 3
        assert built == [{"flag": "estop"}]
        assert absent == SafetyPredicate("no-estop", "flag-absent", (("flag", "estop"),))
        assert "_check" not in repr(absent) and "_check" not in absent.to_data()


class TestFactsReadThroughTheMemo:
    """Commitments, core reports and identity breakdowns are kept in
    ``schema.memo`` under keys of exactly what they read.  Graphs reached
    by random edit sequences, judged under random semantic states that
    vary in every field, must get from the memo the facts that a
    memo-free computation (``remembered`` bypassed) gives.  One schema is
    shared by every draw, so each key is met again with other values of
    the parts that it leaves out."""

    SCHEMA = load_schema(TEST_ONTOLOGY)
    UNITS = (UNIT_A, UNIT_A1, UNIT_B, UNIT_C, UNIT_SUP)
    EDITS = st.one_of(
        st.builds(Rebind, st.sampled_from(["r1", "r2", "r_sup"]), st.sampled_from(UNITS)),
        st.builds(
            UpdateConstraint,
            st.sampled_from(["latency", "safety.margin", "safety.reach"]),
            st.sampled_from([0.5, 1.0, 2.0]),
        ),
        st.sampled_from([FALLBACK, RemoveSubservice(frozenset({"r_sup"})), RemoveSubservice(frozenset({"r2"}))]),
    )
    OBLIGATIONS = st.frozensets(st.sampled_from([cid("t:ObTrace"), cid("t:ObNote")]))
    CONCEPTS = st.sampled_from([cid(c) for c in ("t:FA", "t:FA1", "t:FB", "t:FC", "t:FOversight", "t:ObTrace")])
    #: a strategy per ``SemanticState`` field
    FIELDS = {
        "request_class": st.sampled_from([cid("t:Req"), cid("t:FA")]),
        "request_params": st.sampled_from([(), (("priority", 1),), (("priority", 2),)]),
        "available_agents": st.frozensets(st.sampled_from([("bot", cid("t:UnitA")), ("arm", cid("t:UnitB"))])),
        "component_functions": st.frozensets(
            st.tuples(st.sampled_from([u.component_id for u in UNITS]), st.sampled_from([cid("t:FA"), cid("t:FB")]))
        ),
        "interaction_state": st.builds(
            InteractionState,
            st.sampled_from(["idle", "serving"]),
            OBLIGATIONS.map(sorted).map(tuple),
        ),
        "environment_descriptors": st.sampled_from([(), (("z0", frozenset({cid("t:Zone")})),)]),
        "regime_signals": st.sampled_from([(("deadline", 10.0),), (("battery", 0.2), ("deadline", 3.0))]),
        "safety_flags": st.frozensets(st.sampled_from(["estop", "spill"])),
        "required_functions": st.frozensets(CONCEPTS, max_size=3),
        "output_functions": st.frozensets(CONCEPTS, max_size=3),
    }
    CORES = tuple(
        InvariantCore(
            identity=spec,
            predicates=(
                SafetyPredicate("obligations-honored", "obligations-honored"),
                SafetyPredicate("components-live", "components-live"),
                SafetyPredicate("no-estop", "flag-absent", (("flag", "estop"),)),
                SafetyPredicate(
                    "spill-needs-oversight", "flag-requires-function", (("flag", "spill"), ("function", "t:FOversight"))
                ),
            ),
            include_identity=gated,
        )
        for spec, gated in (
            (identity_spec(0.9), True),
            (identity_spec(0.5), True),
            (identity_spec(0.9), False),
            (IdentitySpec(0.4, 0.3, 0.2, 0.1, 0.9), True),
        )
    )

    @classmethod
    def facts(cls, graphs, states):
        """Every fact of every graph reached from every graph, as
        (commitments, core report, identity breakdown) per pair, state and
        core."""
        out = []
        for core, z in itertools.product(cls.CORES, states):
            for h in graphs:
                step = StepFacts(h, z, cls.SCHEMA, core)
                for h2 in graphs:
                    candidate = CandidateFacts(Transition.reached(h, h2), step)
                    out.append((candidate.commitments, candidate.core_report, candidate.identity))
        return out

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_memo_gives_the_memo_free_facts(self, data):
        graphs = [
            chain_hypothesis(
                [("r1", "t:FA", UNIT_A), ("r2", "t:FB", UNIT_B)],
                edge_contract=contract(entities=("t:FA",), obligations=("t:ObTrace",)),
                constraints={"safety.margin": 1.0},
            )
        ]
        for edit in data.draw(st.lists(self.EDITS, min_size=1, max_size=6)):
            try:
                graphs.append(apply(edit, graphs[-1]))
            except (UnknownSite, MalformedTransformation):
                continue
        graphs = list({h.digest(): h for h in graphs[-4:]}.values())
        z = SemanticState(**{name: data.draw(fields) for name, fields in self.FIELDS.items()})
        # each variant differs from the first state in one or two fields
        states = [z]
        changed = st.lists(st.sampled_from(sorted(self.FIELDS)), min_size=1, max_size=2)
        for names in data.draw(st.lists(changed, max_size=3)):
            states.append(replace(z, **{name: data.draw(self.FIELDS[name]) for name in names}))
        memoised = self.facts(graphs, states)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(OntologySchema, "remembered", lambda schema, key, compute, *args: compute(*args))
            assert memoised == self.facts(graphs, states)


class TestPrior:
    def test_empty_graph_has_zero_complexity(self):
        assert prior_complexity(StructuralPrior(), Hypothesis.build([])) == 0.0

    def test_adding_a_node_strictly_increases_complexity(self, simple_h):
        from conftest import FALLBACK

        prior = StructuralPrior()
        grown = apply(FALLBACK, simple_h)
        assert prior_complexity(prior, grown) > prior_complexity(prior, simple_h)

    def test_three_vs_five_node_pipelines_differ_by_exact_motif_count(self):
        prior = StructuralPrior(node_weight=1.0, edge_weight=1.0, rule_weight=1.0, constraint_weight=1.0)
        three = chain_hypothesis(
            [("a", "t:FA", UNIT_A), ("b", "t:FB", UNIT_B), ("c", "t:FC", UNIT_C)]
        )
        five = chain_hypothesis(
            [
                ("a", "t:FA", UNIT_A),
                ("b", "t:FB", UNIT_B),
                ("c", "t:FC", UNIT_C),
                ("d", "t:FA", UNIT_A1),
                ("e", "t:FB", UNIT_B),
            ]
        )
        gap = prior_complexity(prior, five) - prior_complexity(prior, three)
        assert gap == pytest.approx(2 * 1.0 + 2 * 1.0)  # two nodes and two edges

    def test_subgraph_monotonicity(self, simple_h):
        prior = StructuralPrior(preferred=((simple_h.digest(), 0.2),))
        shrunk = apply(RemoveSubservice(frozenset({"r2"})), simple_h)
        assert prior_complexity(prior, shrunk) <= prior_complexity(prior, simple_h) + 1e-9
        grown = apply(UpdateConstraint("extra", 1.0), simple_h)
        assert prior_complexity(prior, grown) >= prior_complexity(prior, simple_h)

    def test_bonus_cap_enforced(self, simple_h):
        with pytest.raises(ConfigError):
            StructuralPrior(preferred=((simple_h.digest(), 0.5),))  # >= min weight 0.25


class TestDetectRegime:
    def test_single_default_regime_matches_everything(self, z):
        only = regime(label="solo")
        assert detect_regime([only], z).label == "solo"

    def test_deadline_pressure_cutoff_selects_emergency(self, schema, assertions):
        z = semantic_lift(make_raw_state(deadline=3), schema, assertions)
        # oracle by hand: pressure = 1/(1+3) = 0.25 >= 0.2
        assert z.signals()["deadline_pressure"] >= 0.2
        emergency = regime(
            label="emergency",
            entry=((SignalCondition("deadline_pressure", ">=", 0.2),),),
        )
        family = [emergency, regime(label="routine")]
        assert detect_regime(family, z).label == "emergency"

    def test_overlapping_predicates_break_by_declaration_order(self, z):
        first = regime(label="first", entry=((SignalCondition("deadline", ">=", 0.0),),))
        second = regime(label="second", entry=((SignalCondition("deadline", ">=", 0.0),),))
        assert detect_regime([first, second, regime(label="default")], z).label == "first"

    def test_no_match_without_default_is_a_config_error(self, z):
        never = regime(label="never", entry=((SignalCondition("deadline", "<", -1.0),),))
        with pytest.raises(ConfigError):
            detect_regime([never], z)
