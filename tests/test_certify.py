"""Obligation certifiers, substitution conditions, ledger, capacity."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svcgov.canon import canonical_dumps

from svcgov.certificates import CertContext, Certificate, Violation, environment_digest
from svcgov.certify import (
    DriftLedger,
    LedgerEntry,
    RegimeSwitchModel,
    StepFacts,
    admissible,
    capacity_measure,
    certify_capacity,
    certify_closure,
    certify_invariance,
    certify_stability,
    certify_substitution,
    composed_drift_bound,
    structural_charge,
)
from svcgov.errors import ConfigError, UnknownSite
from svcgov.evaluation import BOUND_EPS, StructuralPrior, prior_complexity
from svcgov.memory import (
    EMPTY_STORE,
    FailureSignature,
    MemoryRecord,
    MemoryStore,
    Motif,
    find_transportable,
    record,
)
from svcgov.model import Hypothesis, InterfaceContract, Role, type_soundness
from svcgov.transform import (
    AddSubservice,
    Attachment,
    Rebind,
    Substitute,
    UpdateConstraint,
    apply,
    generate_candidates,
)

from conftest import (
    FALLBACK,
    UNIT_A,
    UNIT_A1,
    UNIT_B,
    UNIT_C,
    UNIT_SUP,
    chain_hypothesis,
    cid,
    invariant_core,
    make_config,
    make_grammar,
    regime,
)


#: Charges with many digits, so that the order of float additions shows.
FLOATS = st.floats(0.0, 3.0, allow_nan=False).map(lambda x: x / 7)


def ctx(schema, z, label="base") -> CertContext:
    return CertContext(label, environment_digest(z, schema))


class TestClosure:
    def test_identity_like_update_certifies(self, schema, simple_h, z):
        grammar = make_grammar(updates=(UpdateConstraint("latency", 10.0),))
        tau = UpdateConstraint("latency", 10.0)
        out = certify_closure(apply(tau, simple_h), schema, grammar, tau, ctx(schema, z))
        assert isinstance(out, Certificate)
        assert out.kind == "closure"

    def test_non_refining_substitution_violates(self, schema, simple_h, z):
        tau = Substitute("r1", "ua", UNIT_B)  # FB does not refine FA
        out = certify_closure(apply(tau, simple_h), schema, make_grammar(), tau, ctx(schema, z))
        assert isinstance(out, Violation)
        assert out.code == "A1"
        assert "not type-sound" in out.message

    def test_out_of_grammar_transformation_violates(self, schema, simple_h, z):
        grammar = make_grammar(enabled=("substitute",))
        tau = UpdateConstraint("latency", 4.0)
        out = certify_closure(apply(tau, simple_h), schema, grammar, tau, ctx(schema, z))
        assert isinstance(out, Violation)
        assert "grammar" in out.message

    @pytest.mark.parametrize("seed", range(4))
    def test_random_grammar_candidates_match_the_oracle(self, schema, z, seed):
        rng = random.Random(seed)
        grammar = make_grammar(
            updates=(UpdateConstraint("latency", 8.0), UpdateConstraint("x", 1.0)),
            max_candidates=64,
        )
        registry = [UNIT_A, UNIT_A1, UNIT_B, UNIT_C]
        h = chain_hypothesis(
            [("r1", "t:FA", rng.choice([UNIT_A, UNIT_A1])), ("r2", "t:FB", UNIT_B)],
            constraints={"latency": 10.0},
        )
        for tau in generate_candidates(h, z, grammar, registry):
            h2 = apply(tau, h)
            out = certify_closure(h2, schema, grammar, tau, ctx(schema, z))
            expected = type_soundness(h2, schema).sound and grammar.allows(tau)
            assert isinstance(out, Certificate) == expected


class TestStability:
    def test_no_change_no_switch_appends_zero_entry(self, schema, simple_h, z):
        e = regime()
        ledger = DriftLedger(bound=5.0)
        out, updated = certify_stability(
            simple_h, simple_h, ledger, RegimeSwitchModel(), e, e, ctx(schema, z)
        )
        assert isinstance(out, Certificate)
        assert updated.entries == (LedgerEntry("base", "base", 0.0, 0.0),)
        assert updated.total == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_switch_sequence_arithmetic(self, schema, simple_h, z, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 10)
        costs = [round(rng.uniform(0.1, 2.0), 6) for _ in range(k)]
        residuals = [round(rng.uniform(0.0, 0.5), 6) for _ in range(k)]
        labels = [f"e{i}" for i in range(k + 1)]
        model = RegimeSwitchModel(
            costs=tuple((labels[i], labels[i + 1], costs[i]) for i in range(k)),
            residuals=tuple((labels[i], labels[i + 1], residuals[i]) for i in range(k)),
        )
        total = sum(c + r for c, r in zip(costs, residuals))
        regimes = [regime(label=l, switching=100.0) for l in labels]

        ledger = DriftLedger(bound=total)
        for i in range(k):
            out, ledger = certify_stability(
                simple_h, simple_h, ledger, model, regimes[i], regimes[i + 1], ctx(schema, z)
            )
            assert isinstance(out, Certificate)
        assert ledger.total == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize("k", (1, 3, 7))
    def test_uniform_sequence_violates_exactly_at_the_end(self, schema, simple_h, z, k):
        # k identical switches of cost c and residual r with bound k(c+r):
        # all certified; with bound k(c+r) - 1 the last switch violates
        c, r = 1.2, 0.3
        labels = [f"e{i}" for i in range(k + 1)]
        model = RegimeSwitchModel(
            costs=tuple((labels[i], labels[i + 1], c) for i in range(k)),
            residuals=tuple((labels[i], labels[i + 1], r) for i in range(k)),
        )
        regimes = [regime(label=l, switching=100.0) for l in labels]
        tight = DriftLedger(bound=k * (c + r) - 1.0)
        for i in range(k - 1):
            out, tight = certify_stability(
                simple_h, simple_h, tight, model, regimes[i], regimes[i + 1], ctx(schema, z)
            )
            assert isinstance(out, Certificate)
        outcome, tight = certify_stability(
            simple_h, simple_h, tight, model, regimes[k - 1], regimes[k], ctx(schema, z)
        )
        assert isinstance(outcome, Violation)
        assert outcome.code == "A2"
        assert tight.valid  # the violating charge was never committed

    def test_budget_gate_uses_destination_regime(self, schema, simple_h, z):
        model = RegimeSwitchModel(costs=(("a", "b", 3.0),))
        a, b = regime(label="a", switching=10.0), regime(label="b", switching=2.0)
        out, _ = certify_stability(
            simple_h, simple_h, DriftLedger(bound=100.0), model, a, b, ctx(schema, z)
        )
        assert isinstance(out, Violation)
        assert "switching budget" in out.message

    def test_ledger_untouched_on_violation(self, schema, simple_h, z):
        model = RegimeSwitchModel(costs=(("a", "b", 3.0),))
        a, b = regime(label="a"), regime(label="b", switching=2.0)
        ledger = DriftLedger(bound=100.0)
        _, after = certify_stability(simple_h, simple_h, ledger, model, a, b, ctx(schema, z))
        assert after is ledger

    def test_structural_charge_combines_constraints_and_reassignments(self, simple_h):
        model = RegimeSwitchModel(reassignment_unit_cost=2.0)
        moved = apply(Substitute("r1", "ua", UNIT_A1), simple_h)
        retuned = apply(UpdateConstraint("latency", 7.0), moved)
        assert structural_charge(simple_h, retuned, model) == pytest.approx(2.0 + 3.0)
        added = apply(UpdateConstraint("fresh", 4.0), simple_h)
        assert structural_charge(simple_h, added, model) == pytest.approx(4.0)

    def test_self_switch_cost_must_be_zero(self):
        with pytest.raises(ConfigError):
            RegimeSwitchModel(costs=(("a", "a", 1.0),))


class TestCapacity:
    def test_empty_graph_certifies_under_any_positive_budget(self, schema, z):
        out = certify_capacity(Hypothesis.build([]), StructuralPrior(), 0.01, ctx(schema, z))
        assert isinstance(out, Certificate)

    def test_budget_boundary_is_inclusive(self, schema, simple_h, z):
        prior = StructuralPrior()
        exact = prior_complexity(prior, simple_h)
        assert isinstance(certify_capacity(simple_h, prior, exact, ctx(schema, z)), Certificate)
        assert isinstance(
            certify_capacity(simple_h, prior, exact - 0.01, ctx(schema, z)), Violation
        )

    def test_oversized_addition_reports_computed_complexity(self, schema, simple_h, z):
        prior = StructuralPrior()
        grown = apply(FALLBACK, simple_h)
        budget = prior_complexity(prior, simple_h)  # too small for the grown graph
        out = certify_capacity(grown, prior, budget, ctx(schema, z))
        assert isinstance(out, Violation)
        assert out.evidence_map()["complexity"] == pytest.approx(prior_complexity(prior, grown))


class TestInvariance:
    def test_unchanged_hypothesis_certifies(self, schema, simple_h, z):
        out = certify_invariance(simple_h, simple_h, z, invariant_core(), schema, ctx(schema, z))
        assert isinstance(out, Certificate)

    def test_silent_request_class_change_violates(self, schema, simple_h, z):
        broken = apply(Substitute("r1", "ua", UNIT_C), simple_h)
        out = certify_invariance(simple_h, broken, z, invariant_core(), schema, ctx(schema, z))
        assert isinstance(out, Violation)
        assert out.code == "A4"
        assert "identity" in out.message

    def test_output_preserving_substitution_certifies_even_across_regimes(self, schema, simple_h, z):
        swapped = apply(Substitute("r1", "ua", UNIT_A1), simple_h)
        out = certify_invariance(simple_h, swapped, z, invariant_core(), schema, ctx(schema, z, "other"))
        assert isinstance(out, Certificate)
        # oracle: identity evaluated by explicit comparison is 1.0
        assert out.evidence_map()["identity_score"] == 1.0

    def test_identity_gate_lifts_when_excluded_from_core(self, schema, simple_h, z):
        broken = apply(Substitute("r1", "ua", UNIT_C), simple_h)
        core = invariant_core(include_identity=False)
        out = certify_invariance(simple_h, broken, z, core, schema, ctx(schema, z))
        assert isinstance(out, Certificate)
        assert out.evidence_map()["identity_score"] < 0.9


class TestSubstitution:
    def test_identity_substitution_certifies(self, schema, simple_h, z):
        out = certify_substitution(
            UNIT_A,
            UNIT_A,
            simple_h,
            z,
            EMPTY_STORE,
            schema,
            invariant_core(),
            RegimeSwitchModel(),
            regime(),
            ctx(schema, z),
        )
        assert isinstance(out, Certificate)
        assert all(out.evidence_map()["conditions"].values())

    def test_matching_failure_signature_violates_condition_five(self, schema, simple_h, z):
        signature = FailureSignature(
            regime_label="base",
            environment_digest=environment_digest(z, schema),
            motif=Motif.build({"slot": cid("t:UnitA1")}),
            obligation_code="runtime-failure",
        )
        store = record(
            EMPTY_STORE,
            MemoryRecord("base", simple_h.digest(), None, "failed", signature),
        )
        out = certify_substitution(
            UNIT_A,
            UNIT_A1,
            simple_h,
            z,
            store,
            schema,
            invariant_core(),
            RegimeSwitchModel(),
            regime(),
            ctx(schema, z),
        )
        assert isinstance(out, Violation)
        assert out.code == "S5"
        assert out.evidence_map()["conditions"]["S5"] is False

    def test_transition_cost_gate(self, schema, simple_h, z):
        out = certify_substitution(
            UNIT_A,
            UNIT_A1,
            simple_h,
            z,
            EMPTY_STORE,
            schema,
            invariant_core(),
            RegimeSwitchModel(reassignment_unit_cost=10.0),
            regime(switching=5.0),
            ctx(schema, z),
        )
        assert isinstance(out, Violation)
        assert out.code == "S4"

    def test_function_class_mismatch_is_condition_one(self, schema, simple_h, z):
        out = certify_substitution(
            UNIT_A,
            UNIT_C,
            simple_h,
            z,
            EMPTY_STORE,
            schema,
            invariant_core(include_identity=False),
            RegimeSwitchModel(),
            regime(),
            ctx(schema, z),
        )
        assert isinstance(out, Violation)
        assert out.code == "S1"


class TestAdmissible:
    def test_single_fault_capacity_reports_only_a3(self, schema, assertions, simple_h, z):
        cfg = make_config(schema, assertions, capacity=prior_complexity(StructuralPrior(), simple_h))
        verdict = admissible(FALLBACK, simple_h, z, regime(), EMPTY_STORE, cfg)
        assert not verdict.passed
        assert verdict.violation_codes() == ("A3",)
        for code in ("A1", "A2", "A4"):
            assert verdict.obligation(code).certified

    def test_a_capacity_certificate_stands_in_only_under_its_own_budget(self, schema, assertions, simple_h, z):
        # a stored capacity certificate about h2, issued under budget 50,
        # does not stand in for A3 under budget 1, where the rule refuses
        # h2; under the budget it was judged under it still transports
        from svcgov.memory import MemoryStore

        tau = Substitute("r1", "ua", UNIT_A1)
        h2 = apply(tau, simple_h)
        prior, context = StructuralPrior(), ctx(schema, z)
        assert 1.0 < prior_complexity(prior, h2) <= 50.0
        store = MemoryStore(certificates=(certify_capacity(h2, prior, 50.0, context),))
        tight = admissible(tau, simple_h, z, regime(), store, make_config(schema, assertions, capacity=1.0))
        assert not tight.passed and tight.transported == 0
        assert tight.violation_codes() == ("A3",)
        refused = tight.obligation("A3").violation
        assert refused.to_data() == certify_capacity(h2, prior, 1.0, context).to_data()
        roomy = admissible(tau, simple_h, z, regime(), store, make_config(schema, assertions, capacity=50.0))
        assert roomy.passed and roomy.transported == 1
        assert roomy.obligation("A3").certificate.transported
        # the reference path applies the same budget rule
        for capacity in (1.0, 50.0):
            call = dict(tau=tau, h=simple_h, z=z, e=regime(), store=store)
            call.update(cfg=make_config(schema, assertions, capacity=capacity))
            call.update(ledger=None, from_regime=None, tick=0, facts=None)
            check_against_standalone(call, admissible(**call))

    def test_all_pass_matches_conjunction_of_independent_certifiers(
        self, schema, assertions, simple_h, z
    ):
        cfg = make_config(schema, assertions)
        e = regime()
        tau = Substitute("r1", "ua", UNIT_A1)
        verdict = admissible(tau, simple_h, z, e, EMPTY_STORE, cfg)
        h2 = apply(tau, simple_h)
        context = ctx(schema, z)
        independent = [
            isinstance(certify_closure(h2, schema, cfg.grammar, tau, context), Certificate),
            isinstance(
                certify_stability(
                    simple_h, h2, DriftLedger(bound=cfg.drift_bound), cfg.switch_model, e, e, context
                )[0],
                Certificate,
            ),
            isinstance(certify_capacity(h2, cfg.prior, cfg.capacity_budget, context), Certificate),
            isinstance(certify_invariance(simple_h, h2, z, cfg.core, schema, context), Certificate),
            isinstance(
                certify_substitution(
                    UNIT_A, UNIT_A1, simple_h, z, EMPTY_STORE, schema, cfg.core, cfg.switch_model, e, context
                ),
                Certificate,
            ),
        ]
        assert verdict.passed == all(independent)
        assert verdict.passed

    def test_commitments_are_built_once_per_configuration(self, monkeypatch, schema, assertions, simple_h, z):
        # the after side of relative identity and the absolute identity of
        # the core both read the commitments of h2, built once
        from svcgov import certify, evaluation

        built = []

        def counting(h, *args):
            built.append(h.digest())
            return commitments(h, *args)

        commitments = evaluation.commitments_of
        monkeypatch.setattr(evaluation, "commitments_of", counting)
        monkeypatch.setattr(certify, "commitments_of", counting)
        tau = Substitute("r1", "ua", UNIT_A1)
        verdict = admissible(tau, simple_h, z, regime(), EMPTY_STORE, make_config(schema, assertions))
        assert verdict.passed
        assert sorted(built) == sorted([simple_h.digest(), apply(tau, simple_h).digest()])

    def test_memory_gate_off_reads_the_empty_store(self, schema, assertions, simple_h, z):
        # the store holds a closure certificate about h2, a success of h2 and
        # a failure signature whose motif occurs in h2: with the gate on, A1
        # is transported and reuse scores the bonus less the penalty; with
        # it off, the step's store is the empty store, so neither is read
        from svcgov.orchestrator import GateFlags, Orchestrator

        tau = Substitute("r1", "ua", UNIT_A1)
        h2 = apply(tau, simple_h)
        env = environment_digest(z, schema)
        cert = Certificate("closure", h2.digest(), CertContext("base", env), (("ok", True),), 0)
        signature = FailureSignature("base", env, Motif.build({"s": cid("t:UnitA1")}), "runtime-failure")
        store = record(EMPTY_STORE, MemoryRecord("base", h2.digest(), cert, "success", None))
        store = record(store, MemoryRecord("base", simple_h.digest(), None, "failed", signature))
        for memory, transported, reuse in ((True, 1, -1.0), (False, 0, 0.0)):
            cfg = make_config(schema, assertions, flags=GateFlags(memory=memory))
            assert admissible(tau, simple_h, z, regime(), store, cfg).transported == transported
            trace, _ = Orchestrator(cfg)._screen(tau, StepFacts.screening(simple_h, z, regime(), store, cfg), 0)
            assert trace.reuse == reuse

    def test_memory_gate_off_never_reads_a_store_index(self, monkeypatch, schema, assertions, simple_h, z):
        # with the gate off the step's store is the empty store: transport,
        # the failure match and the reuse score return at once, and the
        # candidate's trace is the one that reading an index that holds
        # nothing for it gives (a store whose one record is a success of
        # another graph in another regime)
        from svcgov.memory import MemoryStore
        from svcgov.orchestrator import GateFlags, Orchestrator

        inert = record(EMPTY_STORE, MemoryRecord("other", "0" * 64, None, "success", None))
        reads = []
        index = MemoryStore.index
        monkeypatch.setattr(MemoryStore, "index", lambda store: reads.append(store) or index(store))
        cfg = make_config(schema, assertions, flags=GateFlags(memory=False))
        for tau in (Substitute("r1", "ua", UNIT_A1), Substitute("r1", "ua", UNIT_C), FALLBACK):
            step = StepFacts.screening(simple_h, z, regime(), inert, cfg)
            assert step.store is EMPTY_STORE
            trace, _ = Orchestrator(cfg)._screen(tau, step, 0)
            assert reads == []
            full, _ = Orchestrator(cfg)._screen(tau, dataclasses.replace(step, store=inert), 0)
            assert reads and all(store is inert for store in reads)
            assert full == trace
            reads.clear()

    def test_verdict_reports_every_obligation_with_evidence(self, schema, assertions, simple_h, z):
        cfg = make_config(schema, assertions)
        verdict = admissible(Substitute("r1", "ua", UNIT_B), simple_h, z, regime(), EMPTY_STORE, cfg)
        assert [code for code, _ in verdict.obligations] == ["A1", "A2", "A3", "A4"]
        for _, result in verdict.obligations:
            assert (result.certificate is not None) != (result.violation is not None)
        assert verdict.substitution is not None

    def test_inapplicable_transformation_fails_with_error(self, schema, assertions, simple_h, z):
        cfg = make_config(schema, assertions)
        verdict = admissible(
            Substitute("ghost", "ua", UNIT_A1), simple_h, z, regime(), EMPTY_STORE, cfg
        )
        assert not verdict.passed
        assert verdict.error

    def test_disarmed_gate_records_evidence_but_does_not_block(self, schema, assertions, simple_h, z):
        from svcgov.orchestrator import GateFlags

        cfg = make_config(
            schema,
            assertions,
            flags=GateFlags(invariance=False, substitution=False),
        )
        broken = Substitute("r1", "ua", UNIT_C)  # identity-collapsing but type-unsound too
        tau = Substitute("r2", "ub", UNIT_C)  # type-unsound at r2
        verdict = admissible(tau, simple_h, z, regime(), EMPTY_STORE, cfg)
        # invariance evidence still present though the gate is off
        a4 = verdict.obligation("A4")
        assert not a4.gated and a4.passed and a4.violation is not None
        assert not verdict.passed  # closure still gates


#: Adds a role that requires a function its unit lacks: the graph it
#: reaches, one edit from ``simple_h``, is not type-sound.
UNSOUND_ADD = AddSubservice(
    part=Hypothesis.build(
        roles=[Role("r_x", frozenset({cid("t:FC"), cid("t:FOversight")}))],
        assignment={"r_x": UNIT_SUP},
    ),
    attach=(Attachment("r2", "r_x", InterfaceContract(frozenset(), frozenset(), frozenset())),),
    rationale="unsound",
)

#: One certificate drawn for the store: (kind, regime, environment matches,
#: the grammar candidate whose graph it is about, the budget a capacity
#: certificate is judged under, logged with a record rather than loose).
ISSUED = st.tuples(
    st.sampled_from(["closure", "capacity"]),
    st.sampled_from(["base", "base", "noisy"]),
    st.sampled_from([True, True, False]),
    st.integers(0, 10),
    st.sampled_from([4.0, 5.1, 50.0]),
    st.booleans(),
)


class TestTransportCertifiesOnlyItsOwnGraph:
    def test_certificates_about_a_nearby_graph_do_not_stand_in_for_a1(self, schema, assertions, simple_h, z):
        # closure and capacity certificates about simple_h are in the store;
        # the unsound addition reaches a graph one edit away, and A1 judges
        # that graph instead of reusing them
        context = ctx(schema, z)
        closure = Certificate("closure", simple_h.digest(), context, (("ok", True),), 0)
        capacity = certify_capacity(simple_h, StructuralPrior(), 50.0, context)
        store = MemoryStore(certificates=(closure, capacity))
        for kind in ("closure", "capacity"):  # both hand over onto simple_h itself
            assert find_transportable(store, kind, simple_h, context.environment_digest, "base") is not None
        cfg = make_config(schema, assertions, grammar=make_grammar(addable=(FALLBACK, UNSOUND_ADD)))
        verdict = admissible(UNSOUND_ADD, simple_h, z, regime(), store, cfg)
        assert verdict.transported == 0
        a1 = verdict.obligation("A1")
        assert not a1.certified and "not type-sound" in a1.violation.message

    @given(issued=st.lists(ISSUED, max_size=8), capacity=st.sampled_from([4.0, 5.1, 50.0]))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reuse_never_certifies_what_the_rule_refutes(self, schema, assertions, simple_h, z, issued, capacity):
        # the store holds certificates that the rules issued about grammar
        # candidates' graphs, in drawn contexts; whatever A1 or A3 certifies
        # with it, the rule certifies with the empty store
        grammar = make_grammar(addable=(FALLBACK, UNSOUND_ADD))
        cfg = make_config(schema, assertions, grammar=grammar, capacity=capacity)
        candidates = generate_candidates(simple_h, z, grammar, [UNIT_A, UNIT_A1, UNIT_B, UNIT_C, UNIT_SUP])
        env = environment_digest(z, schema)
        loose, logged = [], []
        for kind, regime_label, env_matches, which, budget, in_record in issued:
            tau = candidates[which % len(candidates)]
            h2, context = apply(tau, simple_h), CertContext(regime_label, env if env_matches else "elsewhere")
            if kind == "closure":
                out = certify_closure(h2, schema, grammar, tau, context)
            else:
                out = certify_capacity(h2, cfg.prior, budget, context)
            if isinstance(out, Certificate):  # a refusal is never stored
                if in_record:
                    logged.append(MemoryRecord("base", h2.digest(), out, "success", None))
                else:
                    loose.append(out)
        store = MemoryStore(records=tuple(logged), certificates=tuple(loose))
        for tau in candidates:
            reused = admissible(tau, simple_h, z, regime(), store, cfg)
            alone = admissible(tau, simple_h, z, regime(), EMPTY_STORE, cfg)
            for code in ("A1", "A3"):
                assert alone.obligation(code).certified or not reused.obligation(code).certified, (tau, code)


class TestLedgerAndCapacityMeasure:
    def test_ledger_conservation(self):
        entries = tuple(
            LedgerEntry("a", "b", cost=0.5 * i, residual=0.25) for i in range(1, 6)
        )
        ledger = DriftLedger(bound=100.0, entries=entries)
        assert ledger.total == pytest.approx(sum(e.cost + e.residual for e in entries), abs=1e-9)

    def test_ledger_total_is_the_same_on_every_python_version(self):
        # traced bytes: plain left-to-right float addition, from integer 0
        entries = tuple(LedgerEntry("a", "b", cost=c, residual=0.0) for c in (0.1, 0.2, 0.3))
        assert DriftLedger(bound=1.0, entries=entries).total == 0.6000000000000001
        empty = DriftLedger(bound=1.0).total
        assert empty == 0 and type(empty) is int

    @given(charges=st.lists(st.tuples(FLOATS, FLOATS), max_size=12))
    def test_carried_total_equals_the_left_to_right_sum(self, charges):
        # the reference is the loop that ``total`` ran over every entry on
        # every read; ``charged`` carries the total forward instead
        ledger = DriftLedger(bound=7.5)
        for i, (cost, residual) in enumerate(charges):
            ledger = ledger.charged(LedgerEntry("a", "b" if i % 2 else "a", cost, residual))
            expected = 0
            for e in ledger.entries:
                expected += e.cost + e.residual
            direct = DriftLedger(bound=7.5, entries=ledger.entries)
            assert ledger.total == direct.total == expected and type(ledger.total) is float
            assert canonical_dumps(ledger.to_data()) == canonical_dumps(direct.to_data())
            assert ledger == direct and ledger.valid == (expected <= 7.5 + BOUND_EPS)
        if not charges:
            assert ledger.total == 0 and type(ledger.total) is int
            assert canonical_dumps(ledger.to_data()) == '{"bound":7.5,"entries":[],"total":0}'

    def test_total_always_follows_the_entries(self):
        # the total is derived: no constructor argument sets it, and a
        # replaced ledger sums its own entries
        charged = DriftLedger(bound=1.0).charged(LedgerEntry("a", "b", cost=2.0, residual=0.0))
        with pytest.raises(TypeError):
            DriftLedger(bound=1.0, entries=charged.entries, total=0.0)
        assert not charged.valid
        assert dataclasses.replace(charged, entries=()).total == 0

    def test_capacity_measure_counts_distinct_digests(self, simple_h):
        assert capacity_measure([]) == 0
        assert capacity_measure([simple_h, simple_h]) == 1
        other = apply(UpdateConstraint("latency", 3.0), simple_h)
        assert capacity_measure([simple_h, other]) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_capacity_measure_monotone_under_inclusion(self, seed, simple_h):
        rng = random.Random(seed)
        pool = [apply(UpdateConstraint("x", float(i)), simple_h) for i in range(10)]
        subset = [h for h in pool if rng.random() < 0.5]
        assert capacity_measure(subset) <= capacity_measure(pool)

    def test_composed_bound_is_sum_plus_interface_terms(self):
        assert composed_drift_bound([2.0, 3.0, 4.0], 0.5) == pytest.approx(10.0)
        assert composed_drift_bound([2.0], 0.5) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Shared candidate facts against the standalone certifiers
# ---------------------------------------------------------------------------


def standalone_outcomes(tau, h, z, e, store, cfg, ledger, from_regime, tick, facts):
    """Each obligation's outcome computed the reference way: the public
    certifiers called one by one, each building its own facts, and the
    transport lookup where ``admissible`` consults memory.  The environment
    digest is recomputed from ``z`` and soundness judged afresh; of the
    step's candidate facts passed to ``admissible`` only the switch that
    the step screens is read, as a caller with facts passes no
    ``from_regime``."""
    ledger = ledger if ledger is not None else DriftLedger(bound=cfg.drift_bound)
    if facts is not None:
        assert facts.step.e is e and from_regime is None
        from_regime = facts.step.from_regime
    from_regime = from_regime if from_regime is not None else e
    context = CertContext(e.label, environment_digest(z, cfg.schema))
    memory = store if cfg.flags.memory else EMPTY_STORE
    h2 = apply(tau, h)

    def transported(kind):
        if not cfg.flags.memory:
            return None
        return find_transportable(memory, kind, h2, context.environment_digest, e.label)

    closure = transported("closure")
    if closure is None:
        closure = certify_closure(h2, cfg.schema, cfg.grammar, tau, context, tick)
    budget = min(cfg.capacity_budget, e.budgets.complexity)
    capacity = transported("capacity")
    # a capacity certificate stands in only under the budget it was judged under
    if capacity is None or capacity.evidence_map().get("budget") != budget:
        capacity = certify_capacity(h2, cfg.prior, budget, context, tick)
    stability, charged = certify_stability(h, h2, ledger, cfg.switch_model, from_regime, e, context, tick)
    out = {
        "A1": closure,
        "A2": stability,
        "A3": capacity,
        "A4": certify_invariance(h, h2, z, cfg.core, cfg.schema, context, tick),
        "ledger": charged,
    }
    current = h.binding(tau.role_id) if isinstance(tau, (Substitute, Rebind)) else None
    if current is not None:
        out["S"] = certify_substitution(
            current, tau.new_component, h, z, memory, cfg.schema, cfg.core, cfg.switch_model, e, context, tick
        )
    return out, h2


def check_against_standalone(call, verdict) -> set[str]:
    """Assert that every outcome in ``verdict`` equals the standalone one,
    in full (``to_data``), and that the candidate facts it was screened
    with (those of the call, or those a bare call builds) describe the
    configuration ``tau`` reaches; return the kinds of case the call
    covered."""
    covered = set()
    facts = call["facts"]
    if facts is None:
        args = call["h"], call["z"], call["e"], call["store"], call["cfg"]
        step = StepFacts.screening(*args, from_regime=call["from_regime"])
        facts = step.candidate(call["tau"])
    assert facts.step.h is call["h"] and facts.step.z is call["z"]
    if verdict.error:
        with pytest.raises(UnknownSite) as exc:
            apply(call["tau"], call["h"])
        expected = Violation("A1", f"transformation not applicable: {exc.value}").to_data()
        assert [r.violation.to_data() for _, r in verdict.obligations] == [expected] * 4
        assert verdict.substitution is None
        assert facts.h2 == call["h"] and facts.error == str(exc.value)
        return {"inapplicable"}
    reference, h2 = standalone_outcomes(**call)
    for code, result in verdict.obligations:
        got = result.certificate or result.violation
        assert got.to_data() == reference[code].to_data(), code
        if result.certificate is not None and result.certificate.transported:
            covered.add(f"transported-{code}")
    # the ledger a deploying candidate hands on is the one that A2 charged
    ledger = call["ledger"] if call["ledger"] is not None else DriftLedger(bound=call["cfg"].drift_bound)
    expected_ledger = reference["ledger"] if verdict.passed else ledger
    assert verdict.updated_ledger.to_data() == expected_ledger.to_data()
    if verdict.substitution is not None:
        got = verdict.substitution.certificate or verdict.substitution.violation
        assert got.to_data() == reference["S"].to_data()
        if len(got.evidence_map()["sites"]) > 1:
            covered.add("multi-site")
    else:
        assert "S" not in reference
    assert facts.h2 == h2 and facts.error is None
    assert facts.soundness == type_soundness(h2, call["cfg"].schema)
    assert facts.complexity == prior_complexity(call["cfg"].prior, h2)
    return covered


def recorded_admissible_calls(monkeypatch, runs):
    """Run each (scenario, cfg, store, subject), with ``subject`` configured
    on ``cfg``, and its replay scan under ``cfg``, recording every
    ``admissible`` call of the decision steps (through
    ``Orchestrator._screen``) and of the regret oracle.  The oracle screens
    only candidates scoring above the deployed one, and the full subject
    seldom deploys below such a candidate; each baseline subject's run
    here is chosen so that its scan screens some."""
    import inspect

    from svcgov import certify, orchestrator
    from svcgov.harness import baselines, bench

    calls = []
    signature = inspect.signature(certify.admissible)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        verdict = certify.admissible(*args, **kwargs)
        calls.append((dict(bound.arguments), verdict))
        return verdict

    monkeypatch.setattr(orchestrator, "admissible", recording)
    monkeypatch.setattr(bench, "admissible", recording)
    for scenario, cfg, store, subject in runs:
        result = orchestrator.run(scenario, baselines.configure(cfg, subject), store)
        before = len(calls)
        bench.scan_run(scenario, cfg, result.traces)
        if subject != baselines.FULL:
            assert len(calls) > before, subject  # the oracle's calls are recorded too
    return calls


class TestSharedFactsMatchStandaloneCertifiers:
    def test_pack_and_family_runs(self, monkeypatch, hospital, retail):
        from svcgov.harness import bench
        from svcgov.harness.baselines import FULL

        runs = [(*hospital, EMPTY_STORE, FULL), (*retail, EMPTY_STORE, FULL)]
        runs += [(*bench.FAMILY_GENERATORS[family](0), FULL) for family in bench.FAMILIES]
        runs += [(*retail, EMPTY_STORE, "ontology-only")]
        runs += [(*bench.FAMILY_GENERATORS["regime-switch"](0), "ontology-only")]
        runs += [(*bench.FAMILY_GENERATORS["environment-shift"](0), "heuristic-memory")]
        runs += [(*bench.FAMILY_GENERATORS["memory-reuse"](0), "ontology-only")]
        calls = recorded_admissible_calls(monkeypatch, runs)
        assert len(calls) > 100
        covered = set()
        for call, verdict in calls:
            covered |= check_against_standalone(call, verdict)
        assert {"transported-A1", "transported-A3"} <= covered

    def test_a_call_with_facts_reads_h_and_store_from_their_step(self, monkeypatch):
        # positional ``h`` and ``store`` that disagree with the facts' step
        # change nothing: the before digest, the substitution sites and the
        # transport lookup all read the step
        from svcgov.harness import bench
        from svcgov.harness.baselines import FULL

        calls = recorded_admissible_calls(monkeypatch, [(*bench.FAMILY_GENERATORS["environment-shift"](0), FULL)])
        call, verdict = next((c, v) for c, v in calls if v.transported and v.substitution is not None)
        assert call["facts"] is not None and call["store"] is not EMPTY_STORE
        assert admissible(**dict(call, h=call["facts"].h2, store=EMPTY_STORE)) == verdict

    def test_multi_site_substitution_and_inapplicable_transformations(self, schema, assertions, z):
        # ua is bound at r1 and r3, so substituting it touches both sites
        # while the candidate itself changes one role
        h = chain_hypothesis([("r1", "t:FA", UNIT_A), ("r2", "t:FB", UNIT_B), ("r3", "t:FA", UNIT_A)])
        cfg = make_config(schema, assertions)
        covered = set()
        for tau in (
            Substitute("r1", "ua", UNIT_A1),
            Rebind("r3", UNIT_A1),
            Substitute("r2", "ub", UNIT_C),
            Substitute("ghost", "ua", UNIT_A1),
            Rebind("ghost", UNIT_A1),
            Substitute("r2", "ua", UNIT_A1),
        ):
            call = dict(tau=tau, h=h, z=z, e=regime(), store=EMPTY_STORE, cfg=cfg)
            call.update(ledger=None, from_regime=None, tick=3, facts=None)
            verdict = admissible(**call)
            covered |= check_against_standalone(call, verdict)
            if tau.role_id in ("r1", "r3"):
                # two reassignments on the substitution graph, one on h2
                s_outcome = verdict.substitution.certificate or verdict.substitution.violation
                a2 = verdict.obligation("A2")
                structural = (a2.certificate or a2.violation).evidence_map()["structural"]
                assert s_outcome.evidence_map()["transition_charge"] == 2 * structural == 2.0
        assert {"multi-site", "inapplicable"} <= covered


# ---------------------------------------------------------------------------
# What a screening step computes once
# ---------------------------------------------------------------------------


class TestStepFactsAreComputedOnce:
    """Run and scan family instances and count, per screened candidate,
    the work that the step's facts share.  The instances share their
    pack's cached schema, and so its memo, with each other and with
    earlier tests: ``commitments_of`` and ``core_value`` look their facts
    up in ``schema.memo`` themselves, so each read is still one call,
    while ``identity_breakdown`` runs only on a miss, so its count is
    only bounded."""

    @staticmethod
    def screened_with_counts(monkeypatch, runs, counted):
        """Every screening of the runs and their scans, each decision
        step's ``Orchestrator._screen`` call and each ``admissible`` call of
        the regret oracle, as (verdict, facts, calls of each ``counted`` name
        made while it ran); and the calls of each name over the whole runs
        and scans."""
        from svcgov import orchestrator
        from svcgov.harness import bench

        totals = {name: 0 for name in counted}
        screened = []
        screen = orchestrator.Orchestrator._screen
        step_facts = []  # the facts that ``_screen`` passes to ``admissible``
        step_admissible = orchestrator.admissible

        def passing_facts(*args, **kwargs):
            step_facts.append(kwargs["facts"])
            return step_admissible(*args, **kwargs)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                totals[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, targets in counted.items():
            for owner, attr in targets:
                monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))

        def recording(fn, facts_of):
            def record(*args, **kwargs):
                before = dict(totals)
                result = fn(*args, **kwargs)
                verdict, facts = facts_of(result, kwargs)
                screened.append((verdict, facts, {name: totals[name] - before[name] for name in totals}))
                return result

            return record

        monkeypatch.setattr(orchestrator, "admissible", passing_facts)
        screened_trace = recording(screen, lambda result, _: (result[0].verdict, step_facts.pop()))
        monkeypatch.setattr(orchestrator.Orchestrator, "_screen", screened_trace)
        admissible = recording(bench.admissible, lambda verdict, kwargs: (verdict, kwargs["facts"]))
        monkeypatch.setattr(bench, "admissible", admissible)
        for scenario, cfg, store in runs:
            result = orchestrator.run(scenario, cfg, store)
            bench.scan_run(scenario, cfg, result.traces)
        return screened, totals

    @staticmethod
    def family_runs():
        from svcgov.harness import bench

        return [bench.FAMILY_GENERATORS[family](seed) for family in bench.FAMILIES for seed in (0, 1)]

    def test_commitments_once_per_candidate_and_once_per_step(self, monkeypatch):
        from svcgov import certify, evaluation
        from svcgov.harness import bench

        # per oracle call that finds a deployment: whether it screened an
        # applicable candidate, which builds the step's before side
        deployed_ticks, screened_here = [], []
        oracle, admissible = bench._oracle, bench.admissible

        def screening(*args, **kwargs):
            screened_here.append(kwargs["facts"].error is None)
            return admissible(*args, **kwargs)

        def reading(*args, **kwargs):
            screened_here.clear()
            found = oracle(*args, **kwargs)
            if found.deployed is not None:
                deployed_ticks.append(any(screened_here))
            return found

        monkeypatch.setattr(bench, "admissible", screening)
        monkeypatch.setattr(bench, "_oracle", reading)
        counted = {"commitments": [(certify, "commitments_of"), (evaluation, "commitments_of")]}
        screened, totals = self.screened_with_counts(monkeypatch, self.family_runs(), counted)
        steps = {id(facts.step): facts.step for v, facts, _ in screened if not v.error}
        multi_site = sum(
            len((v.substitution.certificate or v.substitution.violation).evidence_map()["sites"]) > 1
            for v, _, _ in screened
            if v.substitution is not None
        )
        applicable = [counts["commitments"] for v, _, counts in screened if not v.error]
        assert len(screened) > 100 and len(steps) > 20
        # each step builds the before side once, for its first candidate
        assert sum(applicable) == len(applicable) + len(steps) + multi_site
        assert set(applicable) <= {1, 2, 3}
        # the oracle never screens the deployed candidate and reads it from
        # its facts after screening: that builds its commitments once per
        # oracle call that finds a deployment, plus the step's before side
        # when the call screened no applicable candidate
        assert True in deployed_ticks and False in deployed_ticks
        extra = len(deployed_ticks) + deployed_ticks.count(False)
        assert totals["commitments"] - sum(applicable) == extra

    def test_failure_match_once_per_substitution_candidate(self, monkeypatch):
        from svcgov import certify, memory
        from svcgov.harness import bench

        counted = {"match_failure": [(certify, "match_failure"), (memory, "match_failure")]}
        runs = [bench.FAMILY_GENERATORS["memory-reuse"](seed) for seed in (0, 1, 2)]
        runs += [bench.FAMILY_GENERATORS["environment-shift"](seed) for seed in (0, 1, 2)]
        screened, _ = self.screened_with_counts(monkeypatch, runs, counted)
        substitutions = [
            (v, counts["match_failure"])
            for v, _, counts in screened
            if v.substitution is not None
            and len((v.substitution.certificate or v.substitution.violation).evidence_map()["sites"]) == 1
        ]
        assert len(substitutions) > 20
        # S5 and the reuse score read the one match of the substituted graph
        assert {count for _, count in substitutions} == {1}
        assert any(v.substitution.violation is not None and v.substitution.code == "S5" for v, _ in substitutions)
        assert all(counts["match_failure"] <= 1 for v, _, counts in screened if v.substitution is None)

    def test_switch_charge_once_per_candidate(self, monkeypatch):
        created = []
        candidate = StepFacts.candidate

        def creating(step, tau):
            facts = candidate(step, tau)
            created.append(facts)
            return facts

        monkeypatch.setattr(StepFacts, "candidate", creating)
        # the declared residual is read only by the A2 charge, which charges
        # a candidate that does not apply 0 without reading it
        counted = {"residual": [(RegimeSwitchModel, "residual")]}
        _, totals = self.screened_with_counts(monkeypatch, self.family_runs(), counted)
        applicable = [facts for facts in created if facts.error is None]
        # every candidate is charged, by A2 or by its score, and only once
        assert all("entry" in vars(facts) for facts in created)
        assert len(applicable) > 100 and totals["residual"] == len(applicable)

    def test_each_fact_once_per_candidate(self, monkeypatch):
        # one decision-step screening reads each fact of its candidate once,
        # plus the before side of identity once per step; a substitution
        # that touches more sites than the candidate's role reads the facts
        # of the substituted graph too
        from collections import Counter

        from svcgov import certify, evaluation, memory, orchestrator

        calls = Counter()
        counted = {
            "commitments_of": (certify, evaluation),
            "core_value": (certify, evaluation),
            "identity_breakdown": (certify, evaluation),
            "prior_complexity": (certify, evaluation),
            "match_failure": (certify, memory),
            "structural": (RegimeSwitchModel,),
        }

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, owners in counted.items():
            for owner in owners:
                monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        screened = []
        screen = orchestrator.Orchestrator._screen

        def screening(self, tau, step, tick):
            before = calls.copy()
            trace, h2 = screen(self, tau, step, tick)
            screened.append((trace.verdict, step, calls - before))
            return trace, h2

        monkeypatch.setattr(orchestrator.Orchestrator, "_screen", screening)
        for scenario, cfg, store in self.family_runs():
            orchestrator.run(scenario, cfg, store)
        steps, applicable = set(), []
        for verdict, step, counts in screened:
            substitution = verdict.substitution
            outcome = substitution and (substitution.certificate or substitution.violation)
            graphs = 1 + (outcome is not None and len(outcome.evidence_map()["sites"]) > 1)
            first_of_step = not verdict.error and id(step) not in steps
            if not verdict.error:
                steps.add(id(step))
                applicable.append(counts)
            assert counts["commitments_of"] <= graphs + first_of_step, counts
            assert counts["prior_complexity"] <= 1, counts
            for name in ("core_value", "identity_breakdown", "match_failure", "structural"):
                assert counts[name] <= graphs, (name, counts)
        # every applicable candidate is charged, by A2 or by its score
        assert len(applicable) > 100 and all(counts["structural"] for counts in applicable)

    def test_ledger_charged_only_for_passing_candidates_with_a2_certified(self, monkeypatch):
        counted = {"charged": [(DriftLedger, "charged")]}
        screened, _ = self.screened_with_counts(monkeypatch, self.family_runs(), counted)
        charged = [counts["charged"] for _, _, counts in screened]
        expected = [int(v.passed and v.obligation("A2").certified) for v, _, _ in screened]
        assert charged == expected and 0 < sum(charged) < len(charged)


# ---------------------------------------------------------------------------
# Evidence order
# ---------------------------------------------------------------------------


def test_every_rule_gives_its_evidence_in_key_order(schema, assertions, simple_h, z):
    # certificates keep and compare their evidence in key order, which each
    # rule builds itself; the reference is the sort that it replaces
    from svcgov.certify import OBLIGATIONS, _substitution

    cases = [
        (Substitute("r1", "ua", UNIT_A1), {}, 50.0),  # passes every rule
        (Substitute("r1", "ua", UNIT_C), {}, 50.0),  # A4 and S1 fail
        (Substitute("r2", "ub", UNIT_C), {}, 50.0),  # A1 fails
        (Substitute("r1", "ua", UNIT_A1), {}, 0.5),  # A2: a charge of 1 over the bound
        (FALLBACK, {"capacity": prior_complexity(StructuralPrior(), simple_h)}, 50.0),  # A3 fails
    ]
    seen = set()
    for tau, options, bound in cases:
        cfg = make_config(schema, assertions, **options)
        facts = StepFacts.screening(simple_h, z, regime(), EMPTY_STORE, cfg).candidate(tau)
        findings = [(kind, *rule(facts, tau, DriftLedger(bound=bound))) for kind, _, rule in OBLIGATIONS]
        if isinstance(tau, Substitute):
            outcome = _substitution(simple_h.binding(tau.role_id), tau.new_component, (tau.role_id,), facts, 0)
            findings.append(("substitution", outcome.evidence, getattr(outcome, "message", None)))
        for kind, evidence, failure in findings:
            keys = [key for key, _ in evidence]
            assert all(a < b for a, b in zip(keys, keys[1:])), (kind, keys)
            assert tuple(sorted(evidence)) == evidence
            seen.add((kind, failure is None))
    kinds = [obligation.kind for obligation in OBLIGATIONS] + ["substitution"]
    assert seen == {(kind, passed) for kind in kinds for passed in (True, False)}


# ---------------------------------------------------------------------------
# The obligation table
# ---------------------------------------------------------------------------


class TestObligationTable:
    def test_the_table_is_the_obligation_vocabulary(self):
        from svcgov.certificates import OBLIGATION_CODES
        from svcgov.certify import OBLIGATIONS
        from svcgov.memory import TRANSPORTABLE_KINDS
        from svcgov.orchestrator import GateFlags

        codes = tuple(obligation.code for obligation in OBLIGATIONS)
        assert codes + ("S1", "S2", "S3", "S4", "S5", "runtime-failure") == OBLIGATION_CODES
        kinds = {obligation.kind for obligation in OBLIGATIONS}
        assert len(kinds) == len(OBLIGATIONS)
        assert kinds <= {flag.name for flag in dataclasses.fields(GateFlags)}
        assert set(TRANSPORTABLE_KINDS) <= kinds

    def test_each_rule_can_be_wrapped_through_the_table(self, monkeypatch, hospital, retail):
        # a wrapper put on each entry of ``OBLIGATIONS`` (here one that
        # counts) sees every rule the engine runs, with no edit to
        # ``admissible``, and changes no trace
        from svcgov import certify
        from svcgov.harness import bench
        from svcgov.orchestrator import run

        runs = [(*hospital, EMPTY_STORE), (*retail, EMPTY_STORE), bench.FAMILY_GENERATORS["environment-shift"](0)]
        documents = [run(scenario, cfg, store).document(scenario.name, cfg) for scenario, cfg, store in runs]
        calls = {obligation.code: 0 for obligation in certify.OBLIGATIONS}

        def counting(obligation):
            def rule(facts, tau, ledger):
                assert facts.error is None
                calls[obligation.code] += 1
                return obligation.rule(facts, tau, ledger)

            return obligation._replace(rule=rule)

        monkeypatch.setattr(certify, "OBLIGATIONS", tuple(map(counting, certify.OBLIGATIONS)))
        results = [run(scenario, cfg, store) for scenario, cfg, store in runs]
        assert [r.document(scenario.name, cfg) for r, (scenario, cfg, _) in zip(results, runs)] == documents
        verdicts = [c.verdict for r in results for trace in r.traces for c in trace.candidates]
        applicable = [verdict for verdict in verdicts if not verdict.error]
        served = {code: 0 for code in calls}
        for verdict in applicable:
            for code, result in verdict.obligations:
                served[code] += result.certificate is not None and result.certificate.transported
        assert served["A1"] and served["A3"]
        assert calls == {code: len(applicable) - served[code] for code in calls}
