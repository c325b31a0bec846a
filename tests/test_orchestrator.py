"""The decision loop: steps, fallback, full runs, traces, determinism."""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

from svcgov import certify, model, orchestrator
from svcgov.certify import StepFacts, admissible, structural_charge, transition
from svcgov.errors import ConfigError, UnknownSite
from svcgov.evaluation import commitments_of, core_value
from svcgov.harness import bench
from svcgov.memory import EMPTY_STORE
from svcgov.model import semantic_lift
from svcgov.orchestrator import (
    LiftTable,
    Orchestrator,
    registry_from_state,
    replay,
    replay_deployments,
    run,
)
from svcgov.transform import Rebind, UpdateConstraint, apply, transformation_key, transformation_to_data, variant_name

from conftest import cyclic_retail, make_config, make_grammar, make_raw_state, on_padded_schema, pack_variant, regime


def selected_name(trace):
    if trace.selected is None:
        return None
    data = transformation_to_data(trace.selected)
    if data["variant"] in ("substitute", "rebind"):
        return f"{data['variant']}:{data['new']['component']}"
    return f"{data['variant']}:{data.get('name', data.get('rationale', ''))}"


class TestStep:
    def test_no_candidates_is_a_logged_noop(self, schema, assertions, simple_h):
        # substitution at unhealthy sites only, and every component is ok:
        # nothing is generated, the step is a recorded no-op
        from svcgov.model import SignalCondition

        grammar = make_grammar(
            enabled=("substitute", "add_subservice"),
            sites="unhealthy",
            updates=(),
        )
        variants = dict(grammar.variants)
        variants["add_subservice"] = replace(
            variants["add_subservice"],
            triggers=((SignalCondition("deadline", "<", -1.0),),),
        )
        from svcgov.transform import TransformationGrammar

        grammar = TransformationGrammar(
            variants=tuple(sorted(variants.items())),
            addable=grammar.addable,
            constraint_updates=(),
            max_candidates=grammar.max_candidates,
        )
        cfg = make_config(schema, assertions, grammar=grammar)
        orch = Orchestrator(cfg)
        result = orch.step(make_raw_state(), simple_h, cfg.default_regime(), EMPTY_STORE)
        assert result.trace.kind == "noop"
        assert result.trace.candidates == ()
        assert result.hypothesis == simple_h
        assert len(result.store) == 0

    def test_typing_error_becomes_a_noop_error_trace(self, schema, assertions, simple_h):
        cfg = make_config(schema, assertions)
        orch = Orchestrator(cfg)
        raw = make_raw_state(components=(("ghost", "t:Missing", "ok"),))
        result = orch.step(raw, simple_h, cfg.default_regime(), EMPTY_STORE)
        assert result.trace.kind == "error"
        assert "rejected" in result.trace.error
        assert result.hypothesis == simple_h

    def test_registry_derives_from_ok_components_and_assertions(self, schema, assertions):
        from conftest import cid

        raw = make_raw_state(
            components=(("ua", "t:UnitA", "ok"), ("ub", "t:UnitB", "degraded"))
        )
        registry = registry_from_state(raw, assertions, schema)
        assert [c.component_id for c in registry] == ["ua"]
        assert registry[0].provides == frozenset({cid("t:FA")})


class TestHospitalRun:
    def test_battery_tick_selects_the_transfer(self, hospital):
        scenario, cfg = hospital
        result = run(scenario, cfg)
        decision = result.traces[scenario.annotation("decision_tick")]
        assert decision.kind == "selected"
        assert selected_name(decision) == "substitute:r2_nav"
        # the four case-study option families were screened together
        variants = {variant_name(c.transformation) for c in decision.candidates}
        assert {"substitute", "add_subservice", "update_constraint"} <= variants
        # every screened candidate carries a complete verdict
        for c in decision.candidates:
            assert [code for code, _ in c.verdict.obligations] == ["A1", "A2", "A3", "A4"]

    def test_substitution_verdict_lists_all_five_conditions(self, hospital):
        scenario, cfg = hospital
        result = run(scenario, cfg)
        decision = result.traces[scenario.annotation("decision_tick")]
        winner = decision.candidates[decision.selected_index]
        sub = winner.verdict.substitution
        assert sub is not None and sub.certified
        conditions = sub.certificate.evidence_map()["conditions"]
        assert set(conditions) == {"S1", "S2", "S3", "S4", "S5"}
        assert all(conditions.values())

    def test_core_never_violated_across_the_run(self, hospital):
        scenario, cfg = hospital
        result = run(scenario, cfg)
        for tick, h, z, _ in replay_deployments(scenario, cfg, result.traces):
            commitments = commitments_of(h, z, cfg.schema)
            assert core_value(cfg.core, h, z, cfg.schema, commitments).passed, f"core violated at tick {tick}"

    def test_selection_soundness(self, hospital):
        scenario, cfg = hospital
        result = run(scenario, cfg)
        for trace in result.traces:
            if trace.selected_index is None:
                continue
            winner = trace.candidates[trace.selected_index]
            assert winner.verdict.passed
            for i, c in enumerate(trace.candidates):
                if c.verdict.passed and i != trace.selected_index:
                    winner_key = (-winner.breakdown.total, winner.complexity, trace.selected_index)
                    other_key = (-c.breakdown.total, c.complexity, i)
                    assert winner_key <= other_key

    def test_no_silent_drift_every_change_is_replayable(self, hospital):
        scenario, cfg = hospital
        result = run(scenario, cfg)
        replayed = replay_deployments(scenario, cfg, result.traces)
        assert replayed[-1][1] == result.final_hypothesis


class TestReplay:
    def test_each_distinct_raw_state_lifts_once_per_replay(self, monkeypatch):
        # ticks 0 and 1 share a raw state but not a phase; the event at tick
        # 4 restores the tick-0 state as a new, value-equal object.  The
        # scenario lifted every state at load, so a replay that reads its
        # lift table lifts none; on another schema the replay reads a fresh
        # table and lifts each distinct state once
        events = [
            {"tick": 2, "patches": [["zone+", "aisle2", "env:LoudAisle"], ["bandwidth", "aisle2", 0.4]]},
            {"tick": 4, "patches": [["zone-", "aisle2", "env:LoudAisle"], ["bandwidth", "aisle2", 0.6]]},
        ]
        scenario, cfg = pack_variant("retail", events, ticks=7)
        padded = on_padded_schema("retail", cfg)
        traces = run(scenario, cfg).traces
        lifted = []

        def counting_lift(x, *args):
            lifted.append(x.time)
            return semantic_lift(x, *args)

        monkeypatch.setattr(orchestrator, "semantic_lift", counting_lift)
        assert cfg.schema is not scenario.schema  # equal, not identical: the table is shared all the same
        for memo_cfg, expected in ((cfg, []), (padded, [0, 1, 2])):
            lifted.clear()
            replayed = list(replay(scenario, memo_cfg, traces))
            # (tick-0 state, tick 0), (tick-0 state, later), (noisy state, later)
            assert lifted == expected
            assert [trace.tick for trace, *_ in replayed] == list(range(7))
            assert replace(replayed[4][1], time=0) == replayed[0][1]
            for trace, x, z, _, _, _ in replayed:
                assert z == semantic_lift(x, memo_cfg.schema, memo_cfg.assertions), trace.tick
            assert replayed[0][2].interaction_state.phase == "requested"
            assert replayed[1][2].interaction_state.phase == "active"


class TestStateMemo:
    def test_each_distinct_raw_state_lifts_once_per_run(self, monkeypatch):
        # the failure at tick 4 is lifted by ``_record_failures`` and read
        # again by that tick's step; the event at tick 5 restores the tick-1
        # state as a new, value-equal object.  The registry reads only the
        # component states, which change at tick 4 alone.  A run on the
        # scenario's own schema reads every lift from the table the scenario
        # built at load; on another schema it lifts each distinct state once
        events = [
            {"tick": 2, "patches": [["zone+", "aisle2", "env:LoudAisle"], ["bandwidth", "aisle2", 0.4]]},
            {"tick": 4, "patches": [["fail", "speech_unit", "runtime-failure"]]},
            {"tick": 5, "patches": [
                ["zone-", "aisle2", "env:LoudAisle"], ["bandwidth", "aisle2", 0.6], ["health", "speech_unit", "ok"],
            ]},
        ]
        scenario, cfg = pack_variant("retail", events, ticks=8)
        lifted, registries, failing = [], [], []
        record_failures = orchestrator._record_failures

        def counting_lift(x, *args):
            lifted.append(x.time)
            return semantic_lift(x, *args)

        def counting_registry(x, *args):
            registries.append(x.time)
            return registry_from_state(x, *args)

        def spying_failures(store, failures, h, x, *args):
            failing.append(x.time)
            return record_failures(store, failures, h, x, *args)

        monkeypatch.setattr(orchestrator, "semantic_lift", counting_lift)
        monkeypatch.setattr(orchestrator, "registry_from_state", counting_registry)
        monkeypatch.setattr(orchestrator, "_record_failures", spying_failures)
        documents = []
        for run_cfg, expected in ((cfg, ([], [])), (on_padded_schema("retail", cfg), ([0, 1, 2, 4], [0, 4]))):
            lifted.clear(), registries.clear(), failing.clear()
            result = run(scenario, run_cfg)
            assert failing == [4]
            assert [rec.outcome for rec in result.store.records].count("failed") > 0
            assert (lifted, registries) == expected
            documents.append(result.document("r", run_cfg))
        assert documents[0] == documents[1]

    def test_tick_zero_and_a_later_tick_of_one_raw_state_lift_apart(self, schema, assertions):
        memo, raw = LiftTable(schema, assertions), make_raw_state()
        first, later = (memo.lift(replace(raw, time=t)) for t in (0, 1))
        assert first[0].interaction_state.phase == "requested"
        assert later[0].interaction_state.phase == "active"
        assert first[1] == later[1] and len(memo._lifts) == 2
        assert memo.lift(replace(raw, time=9)) is later

    def test_the_lift_key_reads_time_as_the_lift_does(self, monkeypatch, schema, assertions):
        # both read the time through ``model.phase``: a phase rule that
        # told tick 9 apart would part its lift from tick 1's
        import svcgov.model as model

        phase = model.phase

        def later_phase(time):
            return "late" if time >= 9 else phase(time)

        for module in (model, orchestrator):
            monkeypatch.setattr(module, "phase", later_phase)
        memo, raw = LiftTable(schema, assertions), make_raw_state()
        lifts = [memo.lift(replace(raw, time=t))[0] for t in (0, 1, 5, 9, 12)]
        assert [z.interaction_state.phase for z in lifts] == ["requested", "active", "active", "late", "late"]
        assert lifts[1] is lifts[2] and lifts[3] is lifts[4] and len(memo._lifts) == 3

    def test_a_registry_is_built_once_per_component_states(self, monkeypatch, retail):
        # the registry reads only the component states of a raw state, so
        # lifts of states that differ elsewhere share one registry
        scenario, cfg = retail
        built = []

        def counting(x, *args):
            built.append(x.components)
            return orchestrator_registry(x, *args)

        orchestrator_registry = orchestrator.registry_from_state
        monkeypatch.setattr(orchestrator, "registry_from_state", counting)
        memo, states = LiftTable(cfg.schema, cfg.assertions), [scenario.at(tick)[0] for tick in range(scenario.ticks)]
        for x in states:
            assert memo.lift(x)[1] == orchestrator_registry(x, cfg.assertions, cfg.schema)
        assert len(built) == len(set(built)) == len({x.components for x in states}) < len(memo._lifts)

    def test_the_request_part_is_read_once_per_request_class(self, monkeypatch, retail):
        # what the assertion base commits a request to depends only on its
        # class, so the lifts of a run read it once per class
        scenario, cfg = retail
        states = [scenario.at(tick)[0] for tick in range(scenario.ticks)]
        direct = [semantic_lift(x, cfg.schema, cfg.assertions) for x in states]
        read = []

        def counting(request_class, *args):
            read.append(request_class)
            return request_part(request_class, *args)

        request_part = model._request_part
        monkeypatch.setattr(model, "_request_part", counting)
        memo = LiftTable(cfg.schema, cfg.assertions)
        assert [memo.lift(x)[0] for x in states] == direct
        assert len(read) == len(set(read)) == len({x.request.request_class for x in states}) < len(memo._lifts)

    def test_an_untypable_state_is_refused_wherever_it_recurs(self, monkeypatch, schema, assertions, simple_h):
        cfg = make_config(schema, assertions)
        orch = Orchestrator(cfg)
        raw = make_raw_state(components=(("ghost", "t:Missing", "ok"),))
        lifted = []

        def counting_lift(x, *args):
            lifted.append(x.time)
            return semantic_lift(x, *args)

        monkeypatch.setattr(orchestrator, "semantic_lift", counting_lift)
        e = cfg.default_regime()
        refused = orchestrator._record_failures(
            EMPTY_STORE, [("ghost", "runtime-failure")], simple_h, replace(raw, time=1), e, orch
        )
        assert refused is EMPTY_STORE
        first, again = (orch.step(replace(raw, time=t), simple_h, e, EMPTY_STORE).trace for t in (1, 2))
        assert first.kind == again.kind == "error"
        assert first.error == again.error and "t:Missing" in first.error
        assert lifted == [1, 1, 2] and orch.lifts._lifts == {}


class TestTransitionMemo:
    def test_each_distinct_transition_is_applied_once_per_schema(self, monkeypatch):
        # the noise onset recurs every six ticks, so the run's steps and
        # rewrites, and the scan's replay and oracle, meet the same pairs of
        # configuration and transformation again and again; the scan meets
        # many of the run's pairs, and a second run and scan meet no new one;
        # the second scan reads every tick's score that the first one kept,
        # so its oracle asks for nothing and only its replay asks
        scenario, cfg = cyclic_retail(cycles=10)
        cfg.schema.memo.clear()
        applied, requested = [], []

        def counting(tau, h):
            applied.append((h.digest(), transformation_key(tau)))
            return apply(tau, h)

        def requesting(h, tau, schema):
            assert schema is cfg.schema
            requested.append((h.digest(), transformation_key(tau)))
            return transition(h, tau, schema)

        for module in (certify, orchestrator):
            monkeypatch.setattr(module, "apply", counting)
            monkeypatch.setattr(module, "transition", requesting)
        passes = []
        for _ in range(2):
            traces = run(scenario, cfg).traces
            passes.append((applied[:], requested[:]))
            applied.clear(), requested.clear()
            bench.scan_run(scenario, cfg, traces)
            passes.append((applied[:], requested[:]))
            applied.clear(), requested.clear()
        list(replay(scenario, cfg, traces))
        replay_asked = requested[:]
        (in_run, run_asked), (in_scan, scan_asked), *again = passes
        assert len(in_run) == len(set(in_run)) and sorted(in_run) == sorted(set(run_asked))
        assert 3 * len(in_run) < len(run_asked)
        assert len(in_scan) == len(set(in_scan)) and sorted(in_scan) == sorted(set(scan_asked) - set(run_asked))
        assert 0 < len(in_scan) < len(set(scan_asked)) and 3 * len(set(scan_asked)) < len(scan_asked)
        assert applied == [] and set(replay_asked) <= set(scan_asked) and 0 < len(replay_asked) < len(scan_asked)
        assert again == [([], run_asked), ([], replay_asked)]

    def test_signed_zero_bounds_reach_apart(self, retail):
        # equal and hash-equal updates whose configurations differ in digest
        scenario, cfg = retail
        h = scenario.initial_hypothesis
        zero, negative = UpdateConstraint("volume", 0.0), UpdateConstraint("volume", -0.0)
        assert zero == negative and hash(zero) == hash(negative)
        reached = [transition(h, tau, cfg.schema).h2.digest() for tau in (zero, negative)]
        assert reached == [apply(tau, h).digest() for tau in (zero, negative)]
        assert reached[0] != reached[1]

    def test_an_inapplicable_candidate_is_refused_alike_on_a_hit(self, retail):
        # a later step meets the same inapplicable rebinding
        scenario, cfg = retail
        h, e = scenario.initial_hypothesis, cfg.default_regime()
        z, registry = LiftTable(cfg.schema, cfg.assertions).lift(replace(scenario.initial_state, time=1))
        with pytest.raises(UnknownSite) as refused:
            apply(Rebind("ghost", registry[0]), h)
        facts = [
            StepFacts.screening(h, z, e, EMPTY_STORE, cfg).candidate(Rebind("ghost", registry[0], rationale=tag))
            for tag in ("first", "again")
        ]
        assert facts[0].transition is facts[1].transition and facts[0].h2 == h
        assert facts[0].error == facts[1].error == str(refused.value)
        tau = Rebind("ghost", registry[0])
        verdicts = [admissible(tau, h, z, e, EMPTY_STORE, cfg, facts=f) for f in facts]
        assert verdicts[0] == verdicts[1] and verdicts[0].error == str(refused.value)

    @pytest.mark.parametrize("costs", [(0.5, 4.0), (4.0, 0.5)])
    def test_each_switch_model_prices_a_shared_transition(self, retail, costs):
        # two configs on one schema, differing only in the unit cost of a
        # reassignment, screen the deployed substitution from the same graph
        # in either order: they share its transition, and each reads the
        # structural charge of its own switch model
        scenario, cfg = retail
        traces = run(scenario, cfg).traces
        tick = scenario.annotation("decision_tick")
        replayed = replay(scenario, cfg, traces)
        trace, _, z, _, h, _ = next(r for r in replayed if r[0].tick == tick)
        e = next(r for r in cfg.regimes if r.label == trace.regime_label)
        cfg.schema.memo.clear()
        reached, charges = [], []
        for cost in costs:
            priced = replace(cfg, switch_model=replace(cfg.switch_model, reassignment_unit_cost=cost))
            facts = StepFacts.screening(h, z, e, EMPTY_STORE, priced).candidate(trace.selected)
            verdict = admissible(trace.selected, h, z, e, EMPTY_STORE, priced, facts=facts)
            a2 = verdict.obligation("A2")
            assert facts.charge == structural_charge(h, facts.h2, priced.switch_model), cost
            assert (a2.certificate or a2.violation).evidence_map()["structural"] == facts.charge, cost
            reached.append(facts.transition)
            charges.append(facts.charge)
        assert reached[0] is reached[1] and reached[0].parts[1] > 0 and charges[0] != charges[1]


class TestRetailRun:
    def test_regime_switch_charges_exactly_declared_cost_plus_residual(self, retail):
        scenario, cfg = retail
        result = run(scenario, cfg)
        decision = result.traces[scenario.annotation("decision_tick")]
        assert decision.from_regime == "quiet"
        assert decision.regime_label == "noisy"
        declared = cfg.switch_model.cost("quiet", "noisy") + cfg.switch_model.residual("quiet", "noisy")
        assert decision.ledger_total == pytest.approx(declared, abs=1e-9)

    def test_regime_entry_recipe_is_applied_and_recorded(self, retail):
        scenario, cfg = retail
        result = run(scenario, cfg)
        decision = result.traces[scenario.annotation("decision_tick")]
        assert decision.regime_rewrites == (("volume", 0.2),)
        replayed = replay_deployments(scenario, cfg, result.traces)
        assert replayed[-1][1].constraint_map()["volume"] in (0.2, 0.25)

    def test_noise_onset_switches_to_touch_interface(self, retail):
        scenario, cfg = retail
        result = run(scenario, cfg)
        decision = result.traces[scenario.annotation("decision_tick")]
        assert selected_name(decision) == "substitute:touch_unit"


class TestFallback:
    def test_fallback_returns_the_configured_supervision_attachment(self, hospital):
        scenario, cfg = hospital
        tau = cfg.fallback
        data = transformation_to_data(tau)
        assert data["variant"] == "add_subservice"
        roles = [r["id"] for r in data["part"]["roles"]]
        assert roles == ["r_supervise"]
        # the attached part carries the human-notification obligation path
        assert any(p["relation"] == "notifies" for p in data["part"]["policy"])

    def test_fallback_application_is_idempotent(self, hospital):
        scenario, cfg = hospital
        h = scenario.initial_hypothesis
        once = apply(cfg.fallback, h)
        twice = apply(cfg.fallback, once)
        assert once == twice

    def test_config_without_fallback_fails_at_load(self, schema, assertions):
        with pytest.raises(ConfigError):
            replace(make_config(schema, assertions), fallback=None)

    def test_no_survivor_step_emits_the_fallback(self, hospital):
        # quarantine the only viable substitution via seeded failure memory,
        # disable constraint updates, and keep the supervision attachment out
        # of candidate generation: the step must then fall back explicitly
        scenario, cfg = hospital
        from svcgov.model import SignalCondition
        from svcgov.transform import TransformationGrammar, VariantRule

        variants = dict(cfg.grammar.variants)
        variants["update_constraint"] = VariantRule(enabled=False)
        variants["add_subservice"] = replace(
            variants["add_subservice"],
            triggers=((SignalCondition("deadline", "<", -1.0),),),  # never fires
        )
        lean = TransformationGrammar(
            variants=tuple(sorted(variants.items())),
            addable=cfg.grammar.addable,
            constraint_updates=(),
            max_candidates=cfg.grammar.max_candidates,
        )
        cfg2 = replace(cfg, grammar=lean)

        from conftest import pack_variant
        from svcgov.orchestrator import run as run_scenario

        priming, _ = pack_variant(
            "hospital",
            [
                {"tick": 2, "patches": [["battery", "R1", 0.12], ["health", "r1_nav", "degraded"]]},
                {"tick": 3, "patches": [["fail", "r2_nav", "runtime-failure"]]},
            ],
            4,
        )
        primed = run_scenario(priming, cfg).store

        result = run(scenario, cfg2, primed)
        decision = result.traces[scenario.annotation("decision_tick")]
        assert decision.kind == "fallback"
        assert selected_name(decision) == "add_subservice:escalate-supervision"
        fb = decision.candidates[decision.selected_index]
        assert fb.verdict.passed  # the fallback itself passed full screening

    def test_fallback_trigger_requires_enabled_variant(self, schema, assertions):
        grammar = make_grammar(enabled=("substitute", "update_constraint"))
        with pytest.raises(ConfigError):
            make_config(schema, assertions, grammar=grammar)


class TestDeterminism:
    def test_zero_tick_scenario_produces_no_traces(self, hospital):
        scenario, cfg = hospital
        empty = replace(scenario, ticks=0, events=())
        result = run(empty, cfg)
        assert result.traces == ()

    def test_repeated_runs_are_byte_identical(self, hospital):
        scenario, cfg = hospital
        one = run(scenario, cfg).document("r", cfg)
        two = run(scenario, cfg).document("r", cfg)
        assert one == two

    def test_memory_recording_is_deterministic(self, retail):
        scenario, cfg = retail
        a = run(scenario, cfg)
        b = run(scenario, cfg)
        assert len(a.store) == len(b.store)
        assert a.store == b.store


class TestConfigValidation:
    def test_exactly_one_default_regime_required(self, schema, assertions):
        with pytest.raises(ConfigError):
            make_config(schema, assertions, regimes=(regime(label="a"), regime(label="b")))

    def test_default_regime_must_be_last(self, schema, assertions):
        from svcgov.model import SignalCondition

        gated = regime(label="gated", entry=((SignalCondition("noise", ">=", 0.5),),))
        with pytest.raises(ConfigError):
            make_config(schema, assertions, regimes=(regime(label="default"), gated))

    def test_fallback_must_be_declared_in_the_grammar(self, schema, assertions):
        grammar = make_grammar(addable=())
        with pytest.raises(ConfigError):
            make_config(schema, assertions, grammar=grammar)


def test_traces_keep_no_candidate_facts(hospital):
    scenario, cfg = hospital
    result = run(scenario, cfg)
    screened = [c for t in result.traces for c in t.candidates]
    assert screened
    fields = {f.name for f in dataclasses.fields(screened[0].verdict)}
    assert "facts" not in fields and not any(hasattr(c.verdict, "facts") for c in screened)
