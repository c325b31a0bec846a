"""Scenario loading, baselines, benchmark machinery, comparison, CLI."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import zipfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svcgov
from svcgov import certify, orchestrator
from svcgov.certificates import Certificate, environment_digest
from svcgov.certify import CandidateFacts, StepFacts, Transition, _charge_parts, transition
from svcgov.errors import ConfigError, IncomparableReports, ValidationError
from svcgov.evaluation import commitments_of, core_value, detect_regime, evaluate, identity_breakdown
from svcgov.harness import baselines, bench, packs
from svcgov.harness.cli import main as cli_main
from svcgov.harness.demo import strict_extension
from svcgov.harness.packs import pack_data, pack_dir, pack_scenario
from svcgov.harness import scenario as scenario_module
from svcgov.harness.scenario import ScenarioEvent, config_from_data, load_scenario, scenario_from_data
from svcgov.memory import EMPTY_STORE
from svcgov.model import semantic_lift, type_soundness
from svcgov.ontology import OntologySchema
from svcgov.orchestrator import (
    DecisionTrace, LiftTable, OrchestratorConfig, registry_from_state, replay, replay_deployments, run,
)
from svcgov.transform import (
    UpdateConstraint, apply, generate_candidates, transformation_key, transformation_to_data, variant_name,
)

from conftest import chain_ontology, cyclic_retail, on_padded_schema, pack_variant, write_checksummed_store

MINIMAL_SCENARIO = {
    "name": "tiny",
    "ontology_text": """
prefix t urn:tiny
relation providesFunction Agent Function
relation requires Service Function
relation executes Service Function
relation notifies Service Interaction
concept Service t:Req
concept Function t:Go
concept Agent t:Unit
concept Environment t:Here
concept Interaction t:Ping
""",
    "ticks": 1,
    "registry": [{"component": "u1", "concept": "t:Unit", "provides": ["t:Go"]}],
    "assertions": {"individuals": [["req1", "t:Req"]], "facts": [], "params": []},
    "initial_state": {
        "time": 0,
        "agents": [["bot", "t:Unit", True, 0.9, "z"]],
        "request": {"class": "t:Req", "params": {}, "deadline": 5},
        "network": {"z": 1.0},
        "safety_flags": [],
        "environment": {"z": ["t:Here"]},
    },
    "initial_hypothesis": {
        "roles": [{"id": "r1", "requires": ["t:Go"]}],
        "edges": [],
        "assignment": {"r1": {"component": "u1", "concept": "t:Unit", "provides": ["t:Go"]}},
        "policy": [],
        "constraints": {},
    },
    "events": [],
}


#: Patches of the retail pack's state; order matters between most pairs.
RETAIL_PATCHES = [
    ("zone+", "aisle2", "env:LoudAisle"), ("zone-", "aisle2", "env:LoudAisle"), ("bandwidth", "aisle2", 0.4),
    ("bandwidth", "aisle2", 0.6), ("health", "speech_unit", "degraded"), ("health", "speech_unit", "ok"),
    ("fail", "speech_unit", "runtime-failure"), ("fail", "route_unit", "runtime-failure"), ("deadline", 12),
]


class TestScenarioLoading:
    def test_minimal_one_tick_scenario_loads(self):
        scenario = scenario_from_data(MINIMAL_SCENARIO)
        assert scenario.name == "tiny"
        assert scenario.ticks == 1

    def test_unknown_patch_zone_concept_fails_validation(self):
        data = json.loads(json.dumps(MINIMAL_SCENARIO))
        data["events"] = [{"tick": 0, "patches": [["zone+", "z", "t:Nowhere"]]}]
        with pytest.raises(ValidationError):
            scenario_from_data(data)

    def test_event_ticks_must_strictly_increase(self):
        data = json.loads(json.dumps(MINIMAL_SCENARIO))
        data["events"] = [
            {"tick": 0, "patches": [["deadline", 4]]},
            {"tick": 0, "patches": [["deadline", 3]]},
        ]
        with pytest.raises(ValidationError):
            scenario_from_data(data)

    @given(script=st.lists(st.tuples(st.integers(0, 4), st.lists(st.sampled_from(RETAIL_PATCHES), max_size=3))))
    @settings(max_examples=50, deadline=None)
    def test_patched_reads_only_its_ticks_events_in_declaration_order(self, script):
        # built directly, a scenario may declare several events per tick;
        # the reference is the scan of every event that ``patched`` replaced
        retail, _ = pack_scenario("retail", pack_data("retail"))
        scenario = replace(retail, events=tuple(ScenarioEvent(tick, tuple(patches)) for tick, patches in script))
        fast = slow = scenario.initial_state
        for tick in range(6):
            fast, fast_failures = scenario.patched(fast, tick)
            failures = []
            for event in scenario.events:
                if event.tick == tick:
                    for patch in event.patches:
                        slow, failure = scenario_module._apply_patch(slow, patch)
                        failures += [failure] if failure is not None else []
            assert (fast, fast_failures) == (slow, failures)

    @given(
        script=st.lists(st.tuples(st.integers(0, 6), st.lists(st.sampled_from(RETAIL_PATCHES), max_size=3))),
        ticks=st.integers(0, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_kept_states_match_the_patched_walk(self, script, ticks):
        # each tick's state and failures as worked out at load, against the
        # walk that patches the raw state tick by tick
        retail, _ = pack_scenario("retail", pack_data("retail"))
        events = tuple(ScenarioEvent(tick, tuple(patches)) for tick, patches in script)
        scenario = replace(retail, events=events, ticks=ticks)
        raw, kept = scenario.initial_state, set(scenario.lifts._lifts)
        for tick in range(ticks):
            raw, failures = scenario.patched(raw, tick)
            assert scenario.at(tick) == (replace(raw, time=tick), tuple(failures))
            z, _ = scenario.lifts.lift(scenario.at(tick)[0])
            assert z == semantic_lift(replace(raw, time=tick), scenario.schema, scenario.assertions)
        assert set(scenario.lifts._lifts) == kept  # every state the run meets was lifted at load

    def test_unsound_initial_hypothesis_fails_validation(self):
        data = json.loads(json.dumps(MINIMAL_SCENARIO))
        data["initial_hypothesis"]["assignment"] = {}
        with pytest.raises(ValidationError):
            scenario_from_data(data)

    def test_each_distinct_state_lifts_once_whatever_the_tick_count(self, monkeypatch):
        # the tick-0 state lasts to tick 1, where it lifts apart in phase
        lifted = []

        def counting_lift(x, *args):
            lifted.append(x.time)
            return semantic_lift(x, *args)

        monkeypatch.setattr(orchestrator, "semantic_lift", counting_lift)
        data = json.loads((pack_dir("hospital") / "scenario.json").read_text(encoding="utf-8"))
        data["ticks"] = 60_000
        scenario = scenario_from_data(data, base_dir=pack_dir("hospital"))
        assert [event.tick for event in scenario.events] == [2, 3] and lifted == [0, 1, 2, 3]
        assert len(scenario.lifts._lifts) == 4 and len(scenario._states) == 3

        # a state that does not lift is refused once, named by its first tick
        data["events"].append({"tick": 40_000, "patches": [["battery", "R1", 1.5]]})
        data["events"].append({"tick": 60_000, "patches": [["battery", "R1", 2.5]]})  # never reached
        with pytest.raises(ValidationError) as refused:
            scenario_from_data(data, base_dir=pack_dir("hospital"))
        assert refused.value.violations == [
            "tick 40000: state does not lift: agent R1 battery 1.5 outside [0, 1]"
        ]

    def test_hospital_pack_carries_the_case_study_agents(self, hospital):
        scenario, cfg = hospital
        concepts = {str(a.concept) for a in scenario.initial_state.agents}
        assert {
            "ag:DeliveryRobot",
            "ag:Nurse",
            "ag:Pharmacist",
            "ag:RemoteSupervisor",
        } <= concepts

    def test_hospital_tick_zero_lifts_to_typed_entity_sets(self, hospital):
        from svcgov.model import semantic_lift

        scenario, cfg = hospital
        z = semantic_lift(scenario.initial_state, cfg.schema, cfg.assertions)
        assert str(z.request_class) == "svc:DeliveryRequest"
        agents = {aid for aid, _ in z.available_agents}
        assert {"R1", "R2", "nurse1", "pharm1", "sup1"} <= agents
        functions = {str(f) for _, f in z.component_functions}
        assert {"fn:IndoorNavigation", "fn:ItemHandoff", "fn:HumanNotification"} <= functions
        zones = dict(z.environment_descriptors)
        assert {str(d) for d in zones["ward"]} == {"env:Ward", "env:LowConnectivity"}

    def test_pack_files_load_via_path_api(self):
        scenario = load_scenario(pack_dir("hospital") / "scenario.json")
        assert scenario.name == "hospital-delivery"


class TestPackCache:
    def test_generations_from_one_pack_share_its_schema_and_config_parts(self):
        (a, cfg_a, _), (b, cfg_b, _) = (bench.FAMILY_GENERATORS["substitution"](seed) for seed in (0, 1))
        assert a is not b and cfg_a is not cfg_b
        assert a.schema is b.schema is cfg_a.schema is cfg_b.schema
        parts = [f.name for f in dataclasses.fields(OrchestratorConfig) if f.name not in ("schema", "assertions")]
        assert all(getattr(cfg_a, name) is getattr(cfg_b, name) for name in parts)
        assert packs._pack.cache_info().maxsize == len(packs.PACK_NAMES)

    def test_reports_do_not_depend_on_the_cache(self, monkeypatch, cold_packs):
        def reports():
            return [
                bench.report_to_json(bench.run_benchmark(family, subject, range(10)))
                for family in bench.FAMILIES
                for subject in baselines.SUBJECTS
            ]

        def cold(generate):
            return lambda seed: cold_packs.cache_clear() or generate(seed)

        shared = reports()
        for family, generate in bench.FAMILY_GENERATORS.items():
            monkeypatch.setitem(bench.FAMILY_GENERATORS, family, cold(generate))
        assert reports() == shared

    def test_a_warm_shared_schema_judges_equal_elements_without_comparing_them(self, monkeypatch):
        from svcgov.model import Component, Edge, Hypothesis, PolicyRule, Role

        scenario, _ = pack_scenario("hospital", pack_data("hospital"))  # warms the pack's schema
        h = scenario.initial_hypothesis
        twin = Hypothesis.from_data(h.to_data())  # equal elements, none of them the same object
        assert twin == h and not {id(r) for r in h.roles} & {id(r) for r in twin.roles}
        compared = []
        for cls in (Component, Role, Edge, PolicyRule):
            eq = cls.__eq__
            monkeypatch.setattr(cls, "__eq__", lambda self, other, eq=eq: compared.append(self) or eq(self, other))
        assert type_soundness(twin, scenario.schema) == type_soundness(h, scenario.schema)
        assert type_soundness(twin, scenario.schema).sound and compared == []

    @pytest.mark.parametrize(
        "file, broken, code",
        [("config.json", lambda d: d.pop("drift_bound"), 4), ("ontology.txt", None, 3)],
        ids=["config", "ontology"],
    )
    def test_a_pack_that_does_not_load_is_refused_each_time(
        self, monkeypatch, tmp_path, capsys, cold_packs, file, broken, code
    ):
        # the cache keeps no failure: a copied pack with a broken file is
        # refused at every use, and loads once the file is mended
        for name in packs.PACK_NAMES:
            shutil.copytree(str(pack_dir(name)), tmp_path / name)
        monkeypatch.setattr(packs, "pack_dir", lambda name: tmp_path / name)
        path = tmp_path / "hospital" / file
        good = path.read_text(encoding="utf-8")
        if broken is None:
            path.write_text(good + "concept Wat x:y\n", encoding="utf-8")
        else:
            data = json.loads(good)
            broken(data)
            path.write_text(json.dumps(data), encoding="utf-8")
        for _ in range(2):
            assert cli_main(["run", "--pack", "hospital"]) == code
            assert "Traceback" not in capsys.readouterr().err
            assert cold_packs.cache_info().currsize == 0
        path.write_text(good, encoding="utf-8")
        assert cli_main(["validate"]) == 0
        assert cold_packs.cache_info().currsize == len(packs.PACK_NAMES)


def hospital_config_data() -> dict:
    return json.loads((pack_dir("hospital") / "config.json").read_text(encoding="utf-8"))


class TestConfigLoading:
    @pytest.mark.parametrize("key", ["grammar", "regimes", "core", "capacity_budget", "drift_bound"])
    def test_missing_required_key_is_a_config_error(self, hospital, key):
        scenario, _ = hospital
        data = hospital_config_data()
        del data[key]
        with pytest.raises(ConfigError, match=key):
            config_from_data(data, scenario.schema, scenario.assertions)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("drift_bound", "ten"),
            ("capacity_budget", "40.0"),
            ("reuse_bonus", None),
            ("reuse_penalty", True),
            ("interface_charge", [0.5]),
            ("drift_bound", float("nan")),
        ],
    )
    def test_non_numeric_bound_is_a_config_error(self, hospital, key, value):
        scenario, _ = hospital
        data = hospital_config_data()
        data[key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_data(data, scenario.schema, scenario.assertions)

    @pytest.mark.parametrize("flags", [{"memroy": False}, {"memory": "false"}])
    def test_bad_flags_are_a_config_error(self, hospital, flags):
        scenario, _ = hospital
        data = hospital_config_data()
        data["flags"] = flags
        with pytest.raises(ConfigError, match="flag"):
            config_from_data(data, scenario.schema, scenario.assertions)

    @pytest.mark.parametrize(
        "key, value", [("mode", "thresholded"), ("mode", "soft"), ("mode", None), ("value_floor", 1.0)]
    )
    def test_core_modes_other_than_hard_fail_are_refused(self, hospital, key, value):
        scenario, _ = hospital
        data = hospital_config_data()
        data["core"][key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_data(data, scenario.schema, scenario.assertions)

    def test_naming_mode_is_refused_and_leaving_it_out_loads(self, hospital):
        # hard-fail is the only mode, so nothing reads the key
        scenario, _ = hospital
        data = hospital_config_data()
        assert "mode" not in data["core"]
        config_from_data(data, scenario.schema, scenario.assertions)
        data["core"]["mode"] = "hard-fail"
        with pytest.raises(ConfigError, match="unknown core keys: mode"):
            config_from_data(data, scenario.schema, scenario.assertions)

    def test_boolean_flags_load(self, hospital):
        scenario, _ = hospital
        data = hospital_config_data()
        data["flags"] = {"memory": False, "closure": True}
        cfg = config_from_data(data, scenario.schema, scenario.assertions)
        assert not cfg.flags.memory and cfg.flags.closure


class TestBaselines:
    def test_unknown_subject_is_a_config_error(self, hospital):
        _, cfg = hospital
        from svcgov.errors import ConfigError

        with pytest.raises(ConfigError):
            baselines.configure(cfg, "mystery")

    def test_baselines_reuse_the_stack_no_forks(self, hospital):
        scenario, cfg = hospital
        for subject, flags in baselines.BASELINE_FLAGS.items():
            preset = run(scenario, baselines.configure(cfg, subject))
            manual = run(scenario, cfg.ablated(flags))
            assert preset.document(subject, cfg) == manual.document(subject, cfg)

    def test_ontology_only_accepts_the_identity_violating_bait(self):
        scenario, cfg_full, store = bench.FAMILY_GENERATORS["substitution"](0)
        onto = baselines.configure(cfg_full, "ontology-only")
        result = run(scenario, onto, store)
        scan = bench.scan_run(scenario, cfg_full, result.traces)
        assert scan.core_violations >= 1  # deploys the cheap handoff at least once

    def test_full_stack_rejects_the_bait(self):
        scenario, cfg_full, store = bench.FAMILY_GENERATORS["substitution"](0)
        result = run(scenario, cfg_full, store)
        scan = bench.scan_run(scenario, cfg_full, result.traces)
        assert scan.core_violations == 0
        assert scan.identity_ok == scan.deployments


#: sha256 of ``report_to_json(run_benchmark(family, subject, seeds 0-4))``.
#: Trace digests do not cover the scanner, so these pin its output.
REPORT_DIGESTS = {
    ("substitution", "full"): "5f04147658c064d40c6c7d463626e982dc01c523eccfec5f59d3d212e3875083",
    ("substitution", "ontology-only"): "add9e7e812c0676dbdc7cdcedaaadc94f5130b772c989ed6b0bcf509cc0accdf",
    ("substitution", "typed-planner-no-memory"): "a76bc61215ccccc90f35ff80d6ed80e5fc83541d69f8031a56c343322d15332e",
    ("substitution", "heuristic-memory"): "572a2083910569d6c32506afce3b56050b8d79242009ca12f7c2ff64b72e540c",
    ("regime-switch", "full"): "bb471381c74dba87dd0138307072bd8f70e91beaf53e4ace8dd9da09695433a3",
    ("regime-switch", "ontology-only"): "12e0c1507a814464564c44e10273723d86deec4ad60318e309158286ad529439",
    ("regime-switch", "typed-planner-no-memory"): "06b36e37c285d2dec7245d7e81275c59d1f54e27b5f6c5c21c39b96613e86b73",
    ("regime-switch", "heuristic-memory"): "92eb3fde397047f0610738e85761f867b8ea01a9cef750bd88f434c6ebee2097",
    ("environment-shift", "full"): "6916ef5152c6af27bfde42aac9e25ca34b3b599c6d3375bd981147cdb0aed900",
    ("environment-shift", "ontology-only"): "79058bfbd80928d05ec8d8d515282da1d2e2cafe9c0b171ef0663ddae62cf182",
    ("environment-shift", "typed-planner-no-memory"): "d8f45032879b2d65d1d44352133a1c08ce96cf5dcb24053819d625ec78917e0f",
    ("environment-shift", "heuristic-memory"): "657fc1f51ef199130ff9d9696b378a4d4b424cdd2e178ae67df557ab996db42a",
    ("memory-reuse", "full"): "cd1e51d4724be67eac3ca2477bec81e588ff4a0e20b57ce83c79eed3d09b9404",
    ("memory-reuse", "ontology-only"): "162b28df810c4536c454ad59ff537c3f9945078134f35a0e57a810dce1d674e6",
    ("memory-reuse", "typed-planner-no-memory"): "0cc60b1413ea9e7c73870df034cd2ec8b41944bfba277658b4aa0cfa48fdbe56",
    ("memory-reuse", "heuristic-memory"): "9205c05ebf8a3137d4b2721f8f5fdcd2ff5bd1f48b7af848d81ab25a7454d54b",
}


class TestBenchmarks:
    @pytest.mark.parametrize("family, subject", list(REPORT_DIGESTS))
    def test_report_bytes_are_pinned(self, family, subject):
        document = bench.report_to_json(bench.run_benchmark(family, subject, list(range(5))))
        assert hashlib.sha256(document.encode("utf-8")).hexdigest() == REPORT_DIGESTS[family, subject]

    def test_deployed_candidate_outside_the_oracle_list_is_screened_alike(self):
        # a scanner whose grammar lacks the deployed variants reads those
        # deployments from their own facts, and the same metrics with them
        scenario, cfg, store = bench.FAMILY_GENERATORS["substitution"](0)
        traces = run(scenario, cfg, store).traces
        assert any(t.selected is not None and variant_name(t.selected) != "add_subservice" for t in traces)
        kept = tuple((name, rule) for name, rule in cfg.grammar.variants if name == "add_subservice")
        narrow = replace(cfg, grammar=replace(cfg.grammar, variants=kept))
        full, scan = bench.scan_run(scenario, cfg, traces), bench.scan_run(scenario, narrow, traces)
        assert scan.deployments == full.deployments > 0
        assert scan.identity_ok == full.identity_ok
        assert scan.core_violations == full.core_violations
        assert scan.max_switch_structural == full.max_switch_structural > 0.0
        assert scan.regret <= full.regret  # the narrower oracle's best is no higher

    @pytest.mark.parametrize("deployed", [True, False], ids=["deployment", "no-deployment"])
    def test_tampered_deployed_digest_does_not_replay(self, hospital, deployed):
        scenario, cfg = hospital
        traces = list(run(scenario, cfg).traces)
        i = next(i for i, t in enumerate(traces) if (t.selected is not None) == deployed)
        traces[i] = replace(traces[i], deployed_digest="0" * 64)
        message = f"trace at tick {traces[i].tick} does not replay"
        with pytest.raises(ConfigError, match=message):
            replay_deployments(scenario, cfg, traces)
        with pytest.raises(ConfigError, match=message):
            bench.scan_run(scenario, cfg, traces)

    def test_a_config_with_a_disarmed_gate_is_refused(self, retail):
        # the scanner judges every trace under the full law, so a subject's
        # own config, whose tick scores would be kept under the same law,
        # is refused and its disarmed gates named
        scenario, cfg = retail
        traces = run(scenario, cfg).traces
        disarmed = "stability, capacity, invariance, substitution, memory, regime_family"
        with pytest.raises(ConfigError, match=f"disarmed: {disarmed}$"):
            bench.scan_run(scenario, baselines.configure(cfg, "ontology-only"), traces)
        with pytest.raises(ConfigError, match="disarmed: memory$"):
            bench.scan_run(scenario, cfg.ablated(replace(cfg.flags, memory=False)), traces)

    def test_single_seed_report_shape(self):
        report = bench.run_benchmark("substitution", "full", [0])
        assert report.runs == 1
        assert report.safe_reconfiguration_rate == 1.0
        assert 0.0 <= report.identity_preservation_rate <= 1.0

    def test_memory_reuse_family_orders_the_stacks(self):
        seeds = list(range(4))
        full = bench.run_benchmark("memory-reuse", "full", seeds)
        heuristic = bench.run_benchmark("memory-reuse", "heuristic-memory", seeds)
        onto = bench.run_benchmark("memory-reuse", "ontology-only", seeds)
        assert full.identity_preservation_rate >= heuristic.identity_preservation_rate
        assert full.identity_preservation_rate > onto.identity_preservation_rate
        assert full.safe_reconfiguration_rate > onto.safe_reconfiguration_rate
        assert full.certificate_reuse_gain > 0.0

    def test_unknown_family_is_rejected(self):
        with pytest.raises(IncomparableReports):
            bench.run_benchmark("time-travel", "full", [0])

    def test_empty_seeds_are_rejected(self):
        with pytest.raises(IncomparableReports):
            bench.run_benchmark("substitution", "full", [])

    def test_repeated_seeds_are_rejected(self):
        # a repeated seed would count its run twice
        with pytest.raises(IncomparableReports, match="seeds named more than once: 0, 3"):
            bench.run_benchmark("substitution", "full", [3, 0, 1, 0, 3, 3])

    def test_report_json_round_trip(self):
        report = bench.run_benchmark("substitution", "full", [0, 1])
        again = bench.report_from_json(bench.report_to_json(report))
        assert again == report

    def test_benchmark_is_reproducible_per_seed(self):
        one = bench.run_benchmark("regime-switch", "full", [7])
        two = bench.run_benchmark("regime-switch", "full", [7])
        assert one == two

    def test_safe_rate_equals_independent_rescan(self):
        seeds = [0, 1, 2]
        subject = "ontology-only"
        report = bench.run_benchmark("substitution", subject, seeds)
        violating_runs = 0
        for seed in seeds:
            scenario, cfg_full, store = bench.FAMILY_GENERATORS["substitution"](seed)
            result = run(scenario, baselines.configure(cfg_full, subject), store)
            scan = bench.scan_run(scenario, cfg_full, result.traces)
            if scan.core_violations:
                violating_runs += 1
        assert report.safe_reconfiguration_rate == pytest.approx(
            1.0 - violating_runs / len(seeds), abs=1e-12
        )


def everywhere(patch, fn, replacement):
    """Bind ``replacement`` in place of the module-level function ``fn`` in
    every ``svcgov`` module that holds it."""
    for module in [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "svcgov"]:
        if getattr(module, fn.__name__, None) is fn:
            patch.setattr(module, fn.__name__, replacement)


@contextmanager
def applied_afresh():
    """Within the block, every ``transition`` applies its transformation
    afresh: nothing is read from a schema's memo or kept in it."""
    with pytest.MonkeyPatch.context() as patch:
        everywhere(patch, transition, lambda h, tau, schema, key=None: Transition.of(tau, h))
        yield


def reference_screening(cfg, grammar, registry, z, h_before, e_true, from_true, trace):
    """The exhaustive screening that ``bench._oracle`` prunes: every grammar
    candidate, plus the fallback, screened through ``Orchestrator._screen``
    against an empty store, each transition applied afresh.  Returns the
    candidates, each one's (score, passed) in list order, the score
    achieved (a deployed candidate's, screened the same way when it is
    outside the list, or that of keeping ``h_before``) and the deployed
    candidate's facts (None when the trace deployed nothing)."""
    candidates = generate_candidates(h_before, z, grammar, registry)
    if transformation_key(cfg.fallback) not in {transformation_key(t) for t in candidates}:
        candidates = candidates + [cfg.fallback]
    screening = orchestrator.Orchestrator(cfg)  # a fresh drift ledger
    step = StepFacts.screening(h_before, z, e_true, EMPTY_STORE, cfg, from_true)

    def screen(tau):
        candidate, _ = screening._screen(tau, step, trace.tick)
        return candidate.breakdown.total, candidate.verdict.passed

    with applied_afresh():
        rows = [screen(tau) for tau in candidates]
        if trace.selected is None:
            return candidates, rows, evaluate(e_true, h_before, z, 0.0, type_soundness(h_before, cfg.schema)).total, None
        keys = [transformation_key(tau) for tau in candidates]
        key = transformation_key(trace.selected)
        achieved = rows[keys.index(key)][0] if key in keys else screen(trace.selected)[0]
        return candidates, rows, achieved, step.candidate(trace.selected)


def reference_oracle(cfg, grammar, registry, z, h_before, e_true, from_true, trace) -> bench.TickScore:
    """``bench._oracle`` as the exhaustive loop it prunes: the best is the
    highest score of a passing candidate of ``reference_screening``, a
    deployed candidate outside the list never counts toward it, and the
    regret is the best minus the score achieved, floored at 0, or 0 when
    no candidate passes."""
    _, rows, achieved, deployed = reference_screening(cfg, grammar, registry, z, h_before, e_true, from_true, trace)
    passing = [score for score, passed in rows if passed]
    regret = max(0.0, max(passing) - achieved) if passing else 0.0
    if deployed is None:
        return bench.TickScore(regret, None)
    return bench.TickScore(regret, (deployed.identity.total, deployed.core_report.passed, deployed.charge))


def reference_scan(scenario, cfg, traces) -> bench.RunScan:
    """``scan_run`` as the plain loop it memoizes: ``reference_oracle``
    screens every replayed tick, the replay applies each transition
    afresh, and the same tallies are kept.  Each replayed lift and registry
    is checked against a direct read of its own tick: no oracle rule reads
    the interaction phase, so only this check sees a lift of the wrong
    phase."""
    grammar = replace(cfg.grammar, max_candidates=bench._EXHAUSTIVE)
    true_regime = cfg.default_regime()
    deployments = identity_ok = violations = transported = 0
    max_switch_structural = regret = 0.0
    with applied_afresh():
        replayed = list(replay(scenario, cfg, traces))
    for trace, x, z, registry, h_before, _ in replayed:
        assert z == semantic_lift(x, cfg.schema, cfg.assertions), f"tick {trace.tick}"
        assert registry == registry_from_state(x, cfg.assertions, cfg.schema), f"tick {trace.tick}"
        e_true = detect_regime(cfg.regimes, z)
        switched, from_true, true_regime = e_true.label != true_regime.label, true_regime, e_true
        regret_at_tick, deployed = reference_oracle(cfg, grammar, registry, z, h_before, e_true, from_true, trace)
        if deployed is not None:
            identity, core_passed, charge = deployed
            deployments += 1
            identity_ok += cfg.core.identity.admits(identity)
            violations += not core_passed
            if switched:
                max_switch_structural = max(max_switch_structural, charge)
        transported += trace.transported_used
        regret += regret_at_tick
    return bench.RunScan(deployments, identity_ok, violations, max_switch_structural, transported, regret)


def scripted_traces(scenario, script) -> list[DecisionTrace]:
    """Traces of a subject that deploys ``script(tick)`` (None: nothing) on
    every tick and records no regime rewrites: all that the replay reads."""
    h, traces = scenario.initial_hypothesis, []
    for tick in range(scenario.ticks):
        tau = script(tick)
        h = h if tau is None else apply(tau, h)
        traces.append(
            DecisionTrace(
                tick=tick, state_digest="", regime_label="", from_regime="", regime_rewrites=(), candidates=(),
                kind="noop" if tau is None else "selected", selected_index=None, selected=tau,
                deployed_digest=h.digest(), certificates=(), ledger_total=0.0, ledger_entries=0, transported_used=0,
            )
        )
    return traces


@pytest.mark.parametrize("case", ["hospital", "retail", "cyclic-retail", "environment-shift"])
def test_memoised_lifts_match_their_reference(monkeypatch, case):
    """Every lift and registry that the run (steps and failure records) and
    its scan (replay and oracle) read through their memos equals a direct
    lift and registry read of the same raw state.  The cyclic states
    differ in the registry alone or in the lift alone; the
    environment-shift seed adds a zone concept and a primed store."""
    if case == "environment-shift":
        scenario, cfg, store = bench.FAMILY_GENERATORS[case](1)
    else:
        scenario, cfg = cyclic_retail(cycles=10) if case == "cyclic-retail" else pack_scenario(case, pack_data(case))
        store = None
    served = []
    lift = LiftTable.lift

    def serving(table, x):
        lifted = lift(table, x)
        served.append((table, x, lifted))
        return lifted

    monkeypatch.setattr(LiftTable, "lift", serving)
    bench.scan_run(scenario, cfg, run(scenario, cfg, store).traces)
    failures = sum(any(patch[0] == "fail" for patch in event.patches) for event in scenario.events)
    assert len(served) == 2 * scenario.ticks + failures
    assert {id(table) for table, _, _ in served} == {id(scenario.lifts)}
    for _, x, (z, registry) in served:
        assert z == semantic_lift(x, cfg.schema, cfg.assertions), x.time
        assert registry == registry_from_state(x, cfg.assertions, cfg.schema), x.time
    if case in ("hospital", "retail"):  # the others' first event is at tick 1
        (_, x0, (z0, _)), (_, x1, (z1, _)) = served[:2]  # one raw state, two phases
        assert replace(x1, time=0) == x0 and z0 != z1


def spy_everywhere(monkeypatch, fn, seen):
    """Call ``seen`` with the arguments of every call of the module-level
    function ``fn``, in every ``svcgov`` module that holds it."""
    def spying(*args):
        seen(*args)
        return fn(*args)

    everywhere(monkeypatch, fn, spying)


def test_schema_memo_facts_match_a_cold_computation(monkeypatch, cold_packs):
    """After runs and scans of both packs and of every bench family (each
    with the full stack and a baseline), every soundness report,
    environment digest, commitments, core report, identity breakdown and
    tick score that a pack schema's memo keeps equals the one worked out on
    that schema with its memo cleared, and every transition it keeps equals
    a fresh ``Transition.of``: the same configuration digest, refusal text
    and charge parts.  The memo holds these whole facts and provider masks,
    nothing finer."""
    inputs = {}  # memo key -> what it was worked out from
    remembered = OntologySchema.remembered

    def scoring(schema, key, compute, *args):
        if compute is bench._oracle:
            inputs.setdefault(key, args)
        return remembered(schema, key, compute, *args)

    monkeypatch.setattr(OntologySchema, "remembered", scoring)
    spy_everywhere(monkeypatch, type_soundness, lambda h, _: inputs.setdefault(("soundness", h.digest()), h))
    spy_everywhere(
        monkeypatch, environment_digest, lambda z, _: inputs.setdefault(("environment", z.environment_descriptors), z)
    )

    def meeting(h, tau, schema):
        inputs.setdefault(("transition", h.digest(), transformation_key(tau)), (h, tau))

    spy_everywhere(monkeypatch, transition, meeting)
    spy_everywhere(
        monkeypatch,
        commitments_of,
        lambda h, z, _: inputs.setdefault(("commitments", h.digest(), z.required_functions, z.output_functions), (h, z)),
    )

    def judging(core, h, z, schema, commitments):
        parts = z.required_functions, z.output_functions, z.pending_obligations(), z.live_component_ids(), z.safety_flags
        inputs.setdefault(("core", core, h.digest(), *parts), (core, h, z))

    spy_everywhere(monkeypatch, core_value, judging)
    shipped_identity = CandidateFacts.__dict__["identity"].compute

    def identity(facts):  # kept under its own name, as the shipped fact is
        step = facts.step
        parts = step.h.digest(), facts.h2.digest(), step.z.required_functions, step.z.output_functions
        inputs.setdefault(("identity", step.core.identity, *parts), (step.core.identity, step.h, facts.h2, step.z))
        return shipped_identity(facts)

    monkeypatch.setattr(CandidateFacts, "identity", certify.kept(identity))
    cases = [(*pack_scenario(name, pack_data(name)), None) for name in packs.PACK_NAMES]
    cases += [bench.FAMILY_GENERATORS[family](seed) for family in bench.FAMILIES for seed in range(2)]
    for scenario, cfg, store in cases:
        for subject in (baselines.FULL, "heuristic-memory"):
            bench.scan_run(scenario, cfg, run(scenario, baselines.configure(cfg, subject), store).traces)
    schemas = {id(cfg.schema): cfg.schema for _, cfg, _ in cases}
    assert [packs._pack(name).schema for name in packs.PACK_NAMES] == list(schemas.values())
    monkeypatch.undo()
    candidate_kinds = ("commitments", "core", "identity")
    kinds = ("soundness", "environment", "transition", *candidate_kinds, "oracle")
    for schema in schemas.values():
        for key in schema.memo:
            whole = type(key) is tuple and key[0] in kinds
            assert whole or type(key) is frozenset, key
        kept = {k: v for k, v in schema.memo.items() if isinstance(k, tuple) and k[0] in ("soundness", "environment")}
        reached = {k: v for k, v in schema.memo.items() if isinstance(k, tuple) and k[0] == "transition"}
        judged = {k: v for k, v in schema.memo.items() if isinstance(k, tuple) and k[0] in candidate_kinds}
        scored = {k: v for k, v in schema.memo.items() if isinstance(k, tuple) and k[0] == "oracle"}
        tags = [key[0] for key in kept]
        assert tags.count("soundness") > 10 and tags.count("environment") > 1
        assert len(reached) > 10 and any(t.parts != (0.0, 0) for t in reached.values())
        assert all([key[0] for key in judged].count(kind) > 10 for kind in candidate_kinds)
        assert len(scored) > 10 and any(score.regret > 0.0 for score in scored.values())
        assert any(score.deployed is not None for score in scored.values())
        for key, value in scored.items():
            schema.memo.clear()
            assert bench._oracle(*inputs[key]) == value, key
        for key, value in kept.items():
            schema.memo.clear()
            fact = type_soundness if key[0] == "soundness" else environment_digest
            assert fact(inputs[key], schema) == value, key
        for key, value in reached.items():
            h, tau = inputs[key]
            fresh = Transition.of(tau, h)
            assert (value.h2.digest(), value.error) == (fresh.h2.digest(), fresh.error), key
            assert value.parts == fresh.parts == _charge_parts(h, fresh.h2), key
        for key, value in judged.items():
            schema.memo.clear()
            if key[0] == "commitments":
                h, z = inputs[key]
                fresh = commitments_of(h, z, schema)
            elif key[0] == "core":
                core, h, z = inputs[key]
                fresh = core_value(core, h, z, schema, commitments_of(h, z, schema))
            else:
                spec, h, h2, z = inputs[key]
                fresh = identity_breakdown(spec, commitments_of(h, z, schema), commitments_of(h2, z, schema))
            assert fresh == value, key


def test_memoised_transitions_match_plain_apply(monkeypatch):
    """Runs and scans that read every transition through the schema's memo
    write the trace documents and find the scan results of runs and scans
    that apply every transition afresh (``transition`` swapped for plain
    ``Transition.of``), and each transition that the memo serves is the
    one plain ``apply`` reaches: the same configuration and digest."""
    cases = [(name, *pack_scenario(name, pack_data(name)), None, "full") for name in ("hospital", "retail")]
    cases.append(("cyclic-retail", *cyclic_retail(cycles=10), None, "full"))
    for family in bench.FAMILIES:
        for seed in range(3):
            generated = bench.FAMILY_GENERATORS[family](seed)
            cases += [(f"{family}/{seed}/{subject}", *generated, subject) for subject in baselines.SUBJECTS]
    served = []

    def serving(h, tau, schema):
        reached = transition(h, tau, schema)
        served.append((h, tau, reached))
        return reached

    def outcomes():
        found = []
        for name, scenario, cfg, store, subject in cases:
            result = run(scenario, baselines.configure(cfg, subject), store)
            found.append((result.document(name, cfg), bench.scan_run(scenario, cfg, result.traces)))
        return found

    with monkeypatch.context() as patch:
        everywhere(patch, transition, serving)
        memoised = outcomes()
    for h, tau, reached in served:
        fresh = Transition.of(tau, h)
        assert (reached.h2, reached.h2.digest(), reached.error) == (fresh.h2, fresh.h2.digest(), fresh.error)
    assert len({id(reached) for _, _, reached in served}) < len(served)  # some were served from the memo
    with applied_afresh():
        assert outcomes() == memoised


def fresh_lift_table(scenario, cfg):
    """``orchestrator.lift_table`` that never shares the scenario's table:
    a fresh table on the config's schema and assertion base, which lifts
    every state that its run or scan meets."""
    return LiftTable(cfg.schema, cfg.assertions)


class TestSeededLifts:
    """Runs and scans that read the lift table that the scenario worked out
    at load against runs and scans that read a fresh table and lift every
    state they meet."""

    @staticmethod
    def outcomes(cases):
        found = []
        for name, scenario, cfg, store, subject in cases:
            result = run(scenario, baselines.configure(cfg, subject), store)
            found.append((result.document(name, cfg), bench.scan_run(scenario, cfg, result.traces)))
        return found

    @staticmethod
    def counting_lifts(monkeypatch) -> list:
        lifted = []

        def counting(x, *args):
            lifted.append(x)
            return semantic_lift(x, *args)

        monkeypatch.setattr(orchestrator, "semantic_lift", counting)
        return lifted

    def test_seeded_tables_write_what_empty_ones_write(self, monkeypatch):
        # both packs, the cyclic retail script, and every family seed 0-9
        # with the full stack and one of the baselines (in turn); the
        # variant's config comes from the shipped pack and its scenario is
        # parsed again: an equal schema and assertion base, not the same
        # objects, share the scenario's table all the same
        variant = pack_variant("retail", [{"tick": 3, "patches": [["fail", "speech_unit", "runtime-failure"]]}], 6)
        assert variant[1].schema is not variant[0].schema and variant[1].assertions is not variant[0].assertions
        cases = [(name, *pack_scenario(name, pack_data(name)), None, "full") for name in ("hospital", "retail")]
        cases += [("cyclic-retail", *cyclic_retail(cycles=10), None, "full"), ("variant", *variant, None, "full")]
        others = [subject for subject in baselines.SUBJECTS if subject != baselines.FULL]
        for family in bench.FAMILIES:
            for seed in range(10):
                generated = bench.FAMILY_GENERATORS[family](seed)
                for subject in (baselines.FULL, others[seed % len(others)]):
                    cases.append((f"{family}/{seed}/{subject}", *generated, subject))
        lifted = self.counting_lifts(monkeypatch)
        seeded = self.outcomes(cases)
        assert lifted == []  # every lift was read from the scenario's table
        monkeypatch.setattr(orchestrator, "lift_table", fresh_lift_table)
        assert self.outcomes(cases) == seeded and len(lifted) > 2 * len(cases)

    def test_a_config_on_another_schema_lifts_through_its_memo(self, monkeypatch):
        # the padded schema declares unused concepts only, so the trace and
        # the scan match those of the pack's own config
        scenario, cfg = pack_scenario("hospital", pack_data("hospital"))
        expected = self.outcomes([("hospital", scenario, cfg, None, "full")])
        lifted = self.counting_lifts(monkeypatch)
        padded = on_padded_schema("hospital", cfg)
        assert self.outcomes([("hospital", scenario, padded, None, "full")]) == expected
        # the run and its scan each lift every distinct state, as the loader did, once
        half = len(scenario.lifts._lifts)
        assert len(lifted) == 2 * half and lifted[:half] == lifted[half:]

    def test_a_config_on_an_equal_schema_reads_the_scenarios_table(self, monkeypatch):
        # the variant's config comes from the shipped pack: an equal schema
        # and assertion base, not the same objects
        events = [{"tick": 3, "patches": [["fail", "speech_unit", "runtime-failure"]]}]
        scenario, cfg = pack_variant("retail", events, 6)
        assert cfg.schema is not scenario.schema and cfg.assertions is not scenario.assertions
        assert orchestrator.lift_table(scenario, cfg) is scenario.lifts
        lifted, tables, lift = self.counting_lifts(monkeypatch), set(), LiftTable.lift

        def reading(table, x):
            tables.add(id(table))
            return lift(table, x)

        monkeypatch.setattr(LiftTable, "lift", reading)
        self.outcomes([("variant", scenario, cfg, None, "full")])
        assert lifted == [] and tables == {id(scenario.lifts)}

    def test_a_config_on_another_assertion_base_lifts_through_its_own_table(self, monkeypatch):
        # a parameter fact about an individual that nothing names changes
        # no lift, so the trace and the scan match those of the pack's config
        scenario, cfg = pack_scenario("hospital", pack_data("hospital"))
        expected = self.outcomes([("hospital", scenario, cfg, None, "full")])
        kept = dict(scenario.lifts._lifts)
        facts = (*cfg.assertions.parameter_facts, ("nobody", "unused", 1.0))
        other = replace(cfg, assertions=replace(cfg.assertions, parameter_facts=facts))
        table = orchestrator.lift_table(scenario, other)
        assert table is not scenario.lifts and table._lifts == {}
        assert table.schema is other.schema and table.assertions is other.assertions
        lifted = self.counting_lifts(monkeypatch)
        assert self.outcomes([("hospital", scenario, other, None, "full")]) == expected
        assert len(lifted) == 2 * len(kept)  # the run and its scan, each on a table of its own
        assert scenario.lifts._lifts.keys() == kept.keys()
        assert all(scenario.lifts._lifts[key] is pair for key, pair in kept.items())


class TestScanMatchesItsReference:
    @pytest.mark.parametrize("family", bench.FAMILIES)
    def test_family_seeds(self, family):
        for seed in range(10):
            scenario, cfg_full, store = bench.FAMILY_GENERATORS[family](seed)
            for subject in baselines.SUBJECTS:
                traces = run(scenario, baselines.configure(cfg_full, subject), store).traces
                expected = reference_scan(scenario, cfg_full, traces)
                assert bench.scan_run(scenario, cfg_full, traces) == expected, (seed, subject)

    @pytest.mark.parametrize("subject", ["full", "ontology-only"])
    def test_repeating_retail_cycles(self, monkeypatch, subject):
        scenario, cfg = cyclic_retail(cycles=10)
        assert scenario.ticks == 62
        traces = run(scenario, baselines.configure(cfg, subject)).traces
        expected = reference_scan(scenario, cfg, traces)
        screened = []

        def counting_oracle(*args, **kwargs):
            screened.append(args[-1].tick)
            return oracle(*args, **kwargs)

        oracle = bench._oracle
        monkeypatch.setattr(bench, "_oracle", counting_oracle)
        assert bench.scan_run(scenario, cfg, traces) == expected
        assert expected.deployments > 0 and expected.regret > 0.0
        assert len(screened) < scenario.ticks / 2  # repeated states are screened once

    @pytest.mark.parametrize("period", [4, 5])
    def test_scripted_subject_on_retail_cycles(self, period):
        # every ``period`` ticks the subject restores the volume bound, then
        # raises it: out of step with the six-tick event cycle, so one
        # configuration meets one state both on entering the noisy regime
        # and within it, and two states that differ in the lift or in the
        # registry alone
        scenario, cfg = cyclic_retail(cycles=10)
        restore, raise_ = UpdateConstraint("volume", 1.0), UpdateConstraint("volume", 2.0)
        traces = scripted_traces(scenario, lambda tick: {1: restore, 2: raise_}.get(tick % period))
        expected = reference_scan(scenario, cfg, traces)
        assert bench.scan_run(scenario, cfg, traces) == expected
        assert expected.deployments == len(range(1, 62, period)) + len(range(2, 62, period))
        assert expected.regret > 0.0

    def test_request_with_a_unit_valued_parameter(self):
        # a ``[value, unit]`` parameter is read as a tuple, so the raw state
        # can key the replay's lifts
        data = pack_data("hospital")
        ontology = (pack_dir("hospital") / data.pop("ontology")).read_text(encoding="utf-8")
        data["ontology_text"] = ontology + "param svc:DeliveryRequest weight number kg\n"
        data["initial_state"]["request"]["params"]["weight"] = [3.5, "kg"]
        scenario, cfg = pack_scenario("hospital", data)
        assert dict(scenario.initial_state.request.params)["weight"] == (3.5, "kg")
        traces = run(scenario, cfg).traces
        assert bench.scan_run(scenario, cfg, traces) == reference_scan(scenario, cfg, traces)


def slowed_escalation(tau, latency: int):
    """The escalation prototype ``tau`` with every policy step taking ``latency`` ticks."""
    policy = tuple(replace(rule, latency=latency) for rule in tau.part.policy)
    return replace(tau, part=replace(tau.part, policy=policy), rationale=f"escalate-in-{latency}")


def with_noisy_regime(cfg, change):
    """``cfg`` with ``change`` applied to its regime ``noisy``."""
    return replace(cfg, regimes=tuple(change(r) if r.label == "noisy" else r for r in cfg.regimes))


#: Per part of the law that the regret oracle reads, a change to it alone
#: that changes a scan of ``TestTickScoresReadThroughTheMemo``'s traces.
LAW_VARIATIONS = {
    "grammar prototype": lambda cfg: replace(
        cfg, grammar=replace(cfg.grammar, addable=(cfg.fallback, slowed_escalation(cfg.fallback, 0)))
    ),
    "regime weights": lambda cfg: with_noisy_regime(cfg, lambda r: replace(r, weights=replace(r.weights, cost=8.0))),
    "regime budgets": lambda cfg: with_noisy_regime(
        cfg, lambda r: replace(r, budgets=replace(r.budgets, switching_cost=0.01))
    ),
    "identity threshold": lambda cfg: replace(
        cfg, core=replace(cfg.core, identity=replace(cfg.core.identity, threshold=0.5))
    ),
    "core predicate": lambda cfg: replace(cfg, core=replace(cfg.core, predicates=cfg.core.predicates[:1])),
    "prior weight": lambda cfg: replace(cfg, prior=replace(cfg.prior, node_weight=10.0)),
    "capacity budget": lambda cfg: replace(cfg, capacity_budget=5.0),
    "switch cost": lambda cfg: replace(
        cfg, switch_model=replace(cfg.switch_model, costs=tuple((a, b, 3 * c) for a, b, c in cfg.switch_model.costs))
    ),
    "residual": lambda cfg: replace(
        cfg, switch_model=replace(cfg.switch_model, residuals=(("quiet", "noisy", 2.5), ("noisy", "quiet", 2.5)))
    ),
    "unit cost": lambda cfg: replace(cfg, switch_model=replace(cfg.switch_model, reassignment_unit_cost=2.0)),
    "drift bound": lambda cfg: replace(cfg, drift_bound=0.5),
    "fallback": lambda cfg: replace(cfg, fallback=cfg.grammar.addable[1]),
}


class TestTickScoresReadThroughTheMemo:
    """Tick scores are kept in ``schema.memo`` under the law that they were
    found under, by value.  A baseline subject's traces on the cycling
    retail scenario are scanned under the pack config, its grammar given a
    second, slower escalation prototype, and then under a copy that differs
    from it in one part of the law alone: each scan must equal the memo-free
    reference scan, and the part must change that reference, so a key
    without the part would hand the second scan the first one's scores."""

    @pytest.mark.parametrize("part", list(LAW_VARIATIONS))
    def test_each_part_of_the_law_keys_the_scores(self, part):
        scenario, cfg = cyclic_retail(cycles=3)
        addable = (cfg.fallback, slowed_escalation(cfg.fallback, 3))
        cfg = replace(cfg, grammar=replace(cfg.grammar, addable=addable))
        traces = run(scenario, baselines.configure(cfg, "typed-planner-no-memory")).traces
        configs = cfg, LAW_VARIATIONS[part](cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(OntologySchema, "remembered", lambda schema, key, compute, *args: compute(*args))
            expected = [reference_scan(scenario, c, traces) for c in configs]
        assert expected[0] != expected[1]
        assert [bench.scan_run(scenario, c, traces) for c in configs] == expected


def oracle_calls(scenario, cfg, traces):
    """The arguments, but the config, of the oracle call that ``scan_run``
    makes at each tick of a replayed run, in tick order."""
    grammar = replace(cfg.grammar, max_candidates=bench._EXHAUSTIVE)
    true_regime = cfg.default_regime()
    for trace, _, z, registry, h_before, _ in replay(scenario, cfg, traces):
        e_true = detect_regime(cfg.regimes, z)
        from_true, true_regime = true_regime, e_true
        yield grammar, registry, z, h_before, e_true, from_true, trace


def oracle_inputs(scenario, cfg, traces, tick) -> tuple:
    """The arguments, but the config, of the oracle call that ``scan_run``
    makes at ``tick`` of a replayed run."""
    for inputs in oracle_calls(scenario, cfg, traces):
        if inputs[-1].tick == tick:
            return inputs
    raise AssertionError(f"no trace at tick {tick}")


class TestOracleScreensInScoreOrder:
    """Ticks of real runs, two of them with another deployment, where the
    bounded oracle's order matters, each with the ``admissible`` calls it
    makes: the candidates scoring strictly above the score achieved, in
    descending score order, ties in list order, up to the first that
    passes."""

    @staticmethod
    def screened(monkeypatch, cfg, inputs):
        """Each candidate's (score, passed) under full screening, in list
        order; the score achieved; the indices of the candidates that the
        oracle screens, in its order; and its findings, checked against
        ``reference_oracle``."""
        candidates, rows, achieved, _ = reference_screening(cfg, *inputs)
        calls = []
        admissible = bench.admissible

        def recording(tau, *args, **kwargs):
            calls.append(candidates.index(tau))
            return admissible(tau, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(bench, "admissible", recording)
            found = bench._oracle(cfg, *inputs)
        assert found == reference_oracle(cfg, *inputs)
        above = sorted((i for i, (score, _) in enumerate(rows) if score > achieved), key=lambda i: -rows[i][0])
        passing = [k for k, i in enumerate(above) if rows[i][1]]
        assert calls == above[: passing[0] + 1 if passing else len(above)]
        assert found.regret == (rows[above[passing[0]]][0] - achieved if passing else 0.0)
        return rows, achieved, calls, found

    @staticmethod
    def family_run(family, seed, subject):
        scenario, cfg, store = bench.FAMILY_GENERATORS[family](seed)
        return scenario, cfg, run(scenario, baselines.configure(cfg, subject), store).traces

    @staticmethod
    def deploying(inputs, tau):
        """``inputs`` with the trace deploying ``tau`` instead: the oracle
        reads only the trace's selection."""
        return inputs[:-1] + (replace(inputs[-1], selected=tau),)

    def test_the_findings_do_not_depend_on_the_tick(self):
        # ``scan_run`` keys the findings it keeps without the tick
        scenario, cfg, traces = self.family_run("environment-shift", 0, "full")
        found = []
        for inputs in oracle_calls(scenario, cfg, traces):
            later = inputs[:-1] + (replace(inputs[-1], tick=inputs[-1].tick + 1),)
            found.append(bench._oracle(cfg, *inputs))
            assert bench._oracle(cfg, *later) == found[-1]
        assert any(score.regret > 0 and score.deployed is not None for score in found)

    def test_the_top_scored_candidate_fails_and_a_lower_scored_one_passes(self, monkeypatch):
        scenario, cfg, traces = self.family_run("regime-switch", 0, "typed-planner-no-memory")
        inputs = self.deploying(oracle_inputs(scenario, cfg, traces, 4), UpdateConstraint("volume", 1.0))
        rows, achieved, calls, found = self.screened(monkeypatch, cfg, inputs)
        # restoring the quiet volume bound in the noisy regime scores below
        # both candidates: the constraint update scores highest but fails
        # A4, and the fallback, first in the list, passes with a lower score
        (fallback, fallback_passed), (update, update_passed) = rows
        assert update > fallback > achieved and fallback_passed and not update_passed
        assert calls == [1, 0] and found.regret == fallback - achieved

    def test_a_failing_and_a_passing_candidate_tie_on_score(self, monkeypatch):
        scenario, cfg, traces = self.family_run("regime-switch", 0, "full")
        inputs = oracle_inputs(scenario, cfg, traces, 3)
        candidates = reference_screening(cfg, *inputs)[0]
        assert variant_name(candidates[6]) == "update_constraint"
        rows, achieved, calls, found = self.screened(monkeypatch, cfg, self.deploying(inputs, candidates[6]))
        # with the constraint update deployed, two substitutions score above
        # it and tie; the first in list order fails, so both are screened,
        # and the deployed update itself is not
        assert len(rows) == 7 and rows[0][0] == rows[4][0] == max(score for score, _ in rows)
        assert rows[6][0] == achieved < rows[0][0] and not rows[0][1] and rows[4][1]
        assert calls == [0, 4] and found.regret == rows[4][0] - achieved

    def test_no_candidate_passes(self, monkeypatch):
        scenario, cfg, traces = self.family_run("environment-shift", 0, "heuristic-memory")
        rows, achieved, calls, found = self.screened(monkeypatch, cfg, oracle_inputs(scenario, cfg, traces, 3))
        # the two candidates scoring above the deployed one both fail: each
        # is screened, and the tick adds no regret
        above = [i for i, (score, _) in enumerate(rows) if score > achieved]
        assert len(rows) == 7 and above == [4, 6] and not any(rows[i][1] for i in above)
        assert calls == [4, 6] and found.regret == 0.0 and found.deployed is not None

    def test_a_deployed_candidate_outside_the_list_gets_facts_and_no_verdict(self, monkeypatch):
        scenario, cfg, traces = self.family_run("substitution", 0, "full")
        kept = tuple((name, rule) for name, rule in cfg.grammar.variants if name == "add_subservice")
        narrow = replace(cfg, grammar=replace(cfg.grammar, variants=kept))
        tick = next(t.tick for t in traces if t.selected is not None and variant_name(t.selected) != "add_subservice")
        rows, achieved, calls, found = self.screened(monkeypatch, narrow, oracle_inputs(scenario, narrow, traces, tick))
        # the list holds the fallback alone, scoring below the deployed
        # substitution, which is read from its facts; nothing is screened
        assert len(rows) == 1 and rows[0][0] < achieved and calls == []
        assert found == bench.TickScore(0.0, found.deployed) and found.deployed is not None

    def test_nothing_scores_above_the_score_achieved(self, monkeypatch):
        scenario, cfg = cyclic_retail(cycles=10)
        traces = run(scenario, cfg).traces
        rows, achieved, calls, found = self.screened(monkeypatch, cfg, oracle_inputs(scenario, cfg, traces, 9))
        # the run keeps its configuration, and every candidate scores below
        # keeping it or ties it, so no ``admissible`` call is made
        assert len(rows) == 6 and max(score for score, _ in rows) == achieved
        assert calls == [] and found == bench.TickScore(0.0, None)

    def test_every_oracle_tick_of_family_runs(self, monkeypatch):
        ticks = screened = 0
        for family in bench.FAMILIES:
            for seed in range(3):
                scenario, cfg, store = bench.FAMILY_GENERATORS[family](seed)
                for subject in baselines.SUBJECTS:
                    traces = run(scenario, baselines.configure(cfg, subject), store).traces
                    for inputs in oracle_calls(scenario, cfg, traces):
                        ticks += 1
                        screened += len(self.screened(monkeypatch, cfg, inputs)[2])
        assert ticks > 200 and screened > 10


class TestHistoryFlatWork:
    def test_soundness_is_judged_once_per_distinct_graph_per_schema(self, monkeypatch, cold_packs):
        # the report is kept in the schema's memo, so a run judges each
        # distinct graph once, its scan judges only the graphs that the run
        # never met, and a second run and scan judge nothing
        from svcgov import model

        scenario, cfg = cyclic_retail(cycles=10)
        judged, read = [], []
        judge = model._judge_soundness

        def judging(h, schema):
            judged.append(h.digest())
            return judge(h, schema)

        monkeypatch.setattr(model, "_judge_soundness", judging)
        spy_everywhere(monkeypatch, type_soundness, lambda h, schema: read.append(h.digest()))
        result = run(scenario, cfg)
        in_run, judged[:] = list(judged), []
        bench.scan_run(scenario, cfg, result.traces)
        in_scan, judged[:] = list(judged), []
        assert in_run and in_scan and len(in_run + in_scan) == len(set(in_run + in_scan))
        bench.scan_run(scenario, cfg, run(scenario, cfg).traces)
        assert judged == []
        # every graph read was judged on this schema, the initial one when the
        # scenario was loaded, and most of them are read more than once
        assert set(read) == set(in_run + in_scan) | {scenario.initial_hypothesis.digest()}
        assert len(read) > 4 * len(set(read))

    def test_environment_digest_once_per_distinct_environment(self, monkeypatch, cold_packs):
        # the digest reads only the lift's zone descriptors and is kept in
        # the schema's memo: the steps and the failure records of a run
        # digest each distinct descriptor set once, although the states
        # recur every cycle, and the scan that replays the run digests only
        # the sets that the run never met.  Every lift that they read was
        # worked out when the scenario was loaded; on another schema, the
        # run and the scan each lift every distinct state once
        from svcgov import certificates

        scenario, cfg = cyclic_retail(cycles=4)
        digested, lifted, served = [], [], []
        lift = LiftTable.lift

        classify = certificates._class_digest

        def classifying(z, schema):
            digested.append(z.environment_descriptors)
            return classify(z, schema)

        def counting_lift(x, *args):
            lifted.append(x)
            return semantic_lift(x, *args)

        def serving(table, x):
            z, registry = lift(table, x)
            served.append(z)
            return z, registry

        monkeypatch.setattr(certificates, "_class_digest", classifying)
        monkeypatch.setattr(orchestrator, "semantic_lift", counting_lift)
        monkeypatch.setattr(LiftTable, "lift", serving)
        result = run(scenario, cfg)
        failed = [r.failure_signature for r in result.store.records if r.outcome == "failed"]
        screened = [t for t in result.traces if t.candidates]
        assert lifted == []
        assert len(digested) == len(set(digested)) < len({id(z) for z in served}) < len(screened) + len(failed)
        certified = {c.context.environment_digest for t in screened for c in t.certificates}
        assert failed and certified
        assert {sig.environment_digest for sig in failed} | certified <= {environment_digest(z, cfg.schema) for z in served}
        in_run, digested[:], served[:] = list(digested), [], []
        bench.scan_run(scenario, cfg, result.traces)
        # the oracle screens every replayed state, so it reads every class,
        # also those of states where the run had no candidate to screen
        assert lifted == []
        scanned = {z.environment_descriptors for z in served}
        assert len(digested) == len(set(digested)) and set(digested) == scanned - set(in_run)
        assert scanned >= set(in_run)
        padded = on_padded_schema("retail", cfg)
        for walk in (lambda: run(scenario, padded), lambda: bench.scan_run(scenario, padded, result.traces)):
            lifted[:], served[:] = [], []
            walk()
            assert len(lifted) == len({id(z) for z in served}) < len(served)

    def test_work_per_candidate_does_not_grow_with_history(self, monkeypatch):
        # the last six cycles (one period of the unit and deadline rotation)
        # of a 10-cycle and a 40-cycle run screen the same candidates with the
        # same motif checks and the same certificates handed over from the
        # store, although the longer store holds four times the history
        from svcgov import memory

        counts = dict.fromkeys(("candidates", "motifs", "certificates"), 0)
        matches, transport, admissible = memory.Motif.matches, Certificate.as_transported, orchestrator.admissible

        def counted(name, fn):
            def counting(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counting

        monkeypatch.setattr(orchestrator, "admissible", counted("candidates", admissible))
        monkeypatch.setattr(memory.Motif, "matches", counted("motifs", matches))
        monkeypatch.setattr(Certificate, "as_transported", counted("certificates", transport))
        step = orchestrator.Orchestrator.step
        steps = []

        def counting_step(*args):
            before = dict(counts)
            result = step(*args)
            steps.append(tuple(counts[name] - before[name] for name in counts))
            return result

        monkeypatch.setattr(orchestrator.Orchestrator, "step", counting_step)
        tails, records = [], []
        for cycles in (10, 40):
            scenario, cfg = cyclic_retail(cycles)
            steps.clear()
            records.append(len(run(scenario, cfg).store.records))
            tails.append(steps[-36:])
        assert tails[0] == tails[1]
        assert all(sum(column) > 0 for column in zip(*tails[0]))  # candidates, motifs, certificates
        assert records[1] > 3 * records[0]


class TestCompare:
    def test_identical_subjects_compare_equal(self):
        # two subjects whose metrics are the same; one subject given twice
        # is refused, not rated against itself
        report = bench.run_benchmark("substitution", "full", [0])
        table = bench.compare([("full", report), ("heuristic-memory", report)])
        assert all(verdict == "equal" for _, verdict in table.verdicts)
        with pytest.raises(IncomparableReports, match="subject given more than once: full;"):
            bench.compare([("full", report), ("heuristic-memory", report), ("full", report)])

    def test_full_strictly_better_than_ontology_only_on_safety(self):
        seeds = [0, 1, 2]
        full = bench.run_benchmark("substitution", "full", seeds)
        onto = bench.run_benchmark("substitution", "ontology-only", seeds)
        table = bench.compare([("full", full), ("ontology-only", onto)])
        verdicts = dict(table.verdicts)
        assert verdicts["safe_reconfiguration_rate"] == "better"
        assert verdicts["identity_preservation_rate"] == "better"

    def test_table_shape_four_rows_five_metrics(self):
        seeds = [0]
        reports = [
            (s, bench.run_benchmark("substitution", s, seeds)) for s in baselines.SUBJECTS
        ]
        table = bench.compare(reports)
        lines = table.csv_text.strip().splitlines()
        assert len(lines) == 1 + 4
        assert len(lines[0].split(",")) == 1 + 5

    def test_mismatched_seeds_are_incomparable(self):
        a = bench.run_benchmark("substitution", "full", [0])
        b = bench.run_benchmark("substitution", "ontology-only", [1])
        with pytest.raises(IncomparableReports):
            bench.compare([("full", a), ("ontology-only", b)])


class TestDemo:
    def test_strict_extension_witness(self):
        report = strict_extension()
        assert len(report.witnesses) == 2
        assert all(w.consistent and w.sound for w in report.witnesses)
        assert report.ontology_accepts == 2
        assert report.fully_admissible == 1
        rendered = report.render()
        assert "ontology-conformant: BOTH" in rendered
        assert "fully-admissible: ONE" in rendered


class TestCli:
    def test_validate_packs_exits_zero(self, capsys):
        assert cli_main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "pack ok: hospital" in out

    def test_validate_bad_ontology_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("concept Wat x:y\n")
        assert cli_main(["validate", "--ontology", str(bad)]) == 3
        assert "error parse" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"concept t:A\n\xff\xfe\n"], ids=["missing", "not-utf8"])
    def test_validate_unreadable_ontology_exits_three(self, tmp_path, capsys, content):
        path = tmp_path / "onto.txt"
        if content is not None:
            path.write_bytes(content)
        assert cli_main(["validate", "--ontology", str(path)]) == 3
        err = capsys.readouterr().err
        assert "error parse" in err and "ontology" in err
        assert "Traceback" not in err

    def test_validate_deep_refinement_loop_exits_three(self, tmp_path, capsys):
        loop = tmp_path / "loop.txt"
        loop.write_text(chain_ontology(5000, closed=True))
        assert cli_main(["validate", "--ontology", str(loop)]) == 3
        assert "refinement cycle" in capsys.readouterr().err

    def test_run_with_config_missing_drift_bound_exits_four(self, tmp_path, capsys):
        data = hospital_config_data()
        del data["drift_bound"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        scenario = pack_dir("hospital") / "scenario.json"
        assert cli_main(["run", "--scenario", str(scenario), "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert "error config" in err and "drift_bound" in err
        assert "Traceback" not in err

    def test_run_with_predicate_missing_its_flag_exits_four(self, tmp_path, capsys):
        data = hospital_config_data()
        data["core"]["predicates"].append({"name": "no-estop", "kind": "flag-absent", "params": {}})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        scenario = pack_dir("hospital") / "scenario.json"
        assert cli_main(["run", "--scenario", str(scenario), "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert "error config" in err and "no-estop" in err and "'flag'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, mutate",
        [
            ("core", lambda d: d["core"]["predicates"].append({"name": "x", "kind": "flag-absent", "params": []})),
            ("core", lambda d: d["core"]["predicates"].append({"name": "x"})),
            ("core", lambda d: d["core"].pop("identity")),
            ("regimes", lambda d: d["regimes"][0].pop("budgets")),
        ],
        ids=["predicate-params-list", "predicate-without-kind", "core-without-identity", "regime-without-budgets"],
    )
    def test_run_with_malformed_config_section_exits_four(self, tmp_path, capsys, section, mutate):
        data = hospital_config_data()
        mutate(data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        scenario = pack_dir("hospital") / "scenario.json"
        assert cli_main(["run", "--scenario", str(scenario), "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert "error config" in err and f"section {section!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (
                lambda d: d["grammar"].update(constraint_update=[]),
                "section 'grammar': unknown grammar keys: constraint_update",
            ),
            (lambda d: d["core"].update(include_identity="false"), "section 'core': core key 'include_identity'"),
            (lambda d: d.update(reuse_bonsu=2.0), "unknown configuration keys: reuse_bonsu"),
            (lambda d: d["fallback"].update(variant="teleport"), "section 'fallback': unknown transformation variant"),
            (
                lambda d: d["grammar"]["addable"].append({"variant": "update_constraint", "name": "x", "bound": 1.0}),
                "section 'grammar': grammar addable entries must be add_subservice",
            ),
        ],
        ids=[
            "grammar-key-typo",
            "include-identity-string",
            "top-level-key-typo",
            "fallback-variant",
            "addable-variant",
        ],
    )
    def test_run_with_config_typo_exits_four(self, tmp_path, capsys, mutate, expected):
        data = hospital_config_data()
        mutate(data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        scenario = pack_dir("hospital") / "scenario.json"
        assert cli_main(["run", "--scenario", str(scenario), "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert "error config" in err and expected in err
        assert "Traceback" not in err

    def test_run_with_malformed_store_record_exits_five(self, tmp_path, capsys):
        store = tmp_path / "mem.store"
        write_checksummed_store(store, [{"record": {"regime": "r"}}])
        assert cli_main(["run", "--pack", "hospital", "--store", str(store)]) == 5
        err = capsys.readouterr().err
        assert "error corrupt-store" in err and "hypothesis" in err
        assert "Traceback" not in err

    def test_run_with_a_store_graph_under_another_digest_exits_five(self, tmp_path, capsys):
        from svcgov.memory import persist
        from svcgov.harness.packs import load_pack

        path = tmp_path / "mem.store"
        persist(run(*load_pack("retail")).store, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        entries = [json.loads(line) for line in lines[1:-1]]
        edited = next(i for i, e in enumerate(entries) if "record" in e and "graph" in e)
        entries[edited]["graph"]["constraints"]["latency"] += 1.0
        write_checksummed_store(path, entries)
        assert cli_main(["run", "--pack", "retail", "--store", str(path)]) == 5
        err = capsys.readouterr().err
        assert "error corrupt-store" in err and f"store line {edited + 2} key 'graph'" in err
        assert "Traceback" not in err

    def test_run_with_non_utf8_store_exits_five(self, tmp_path, capsys):
        store = tmp_path / "mem.store"
        store.write_bytes(b"svcgov-memory v1\n\xff\xfe\n")
        assert cli_main(["run", "--pack", "hospital", "--store", str(store)]) == 5
        err = capsys.readouterr().err
        assert "error corrupt-store" in err
        assert "Traceback" not in err

    def test_run_pack_writes_trace_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", "--pack", "retail", "--out", str(out)]) == 0
        assert (out / "retail-guidance.trace.json").exists()
        assert (out / "retail-guidance.summary.csv").exists()

    def test_run_summary_has_one_row_per_trace(self, tmp_path, hospital):
        scenario, cfg = hospital
        out = tmp_path / "out"
        assert cli_main(["run", "--pack", "hospital", "--out", str(out)]) == 0
        text = (out / f"{scenario.name}.summary.csv").read_text(encoding="utf-8")
        header, *rows = csv.reader(io.StringIO(text))
        assert header == ["tick", "regime", "candidates", "survivors", "kind", "selected", "score", "ledger_total"]
        traces = run(scenario, cfg).traces
        assert len(rows) == len(traces)
        for row, trace in zip(rows, traces):
            survivors = sum(c.verdict.passed for c in trace.candidates)
            assert row[:5] == [str(trace.tick), trace.regime_label, str(len(trace.candidates)), str(survivors), trace.kind]
            selected = None if trace.selected_index is None else trace.candidates[trace.selected_index]
            assert row[5] == ("" if selected is None else transformation_to_data(selected.transformation)["variant"])
            assert row[6] == ("" if selected is None else f"{selected.breakdown.total:.6f}")
            assert row[7] == f"{trace.ledger_total:.6f}"
        assert any(row[6] for row in rows) and any(row[3] != "0" for row in rows)

    def test_run_keeps_the_config_flags_unless_a_baseline_is_given(self, tmp_path):
        shutil.copytree(str(pack_dir("retail")), tmp_path / "retail")
        config = tmp_path / "retail" / "config.json"
        data = json.loads(config.read_text(encoding="utf-8"))
        data["flags"] = {"memory": False, "stability": False, "regime_family": False}
        config.write_text(json.dumps(data), encoding="utf-8")
        argv = ["run", "--scenario", str(tmp_path / "retail" / "scenario.json"), "--config", str(config)]
        own = {**orchestrator.GateFlags().to_data(), **data["flags"]}
        subject = baselines.BASELINE_FLAGS["heuristic-memory"].to_data()
        for extra, flags in (([], own), (["--baseline", "heuristic-memory"], subject)):
            out = tmp_path / "out"
            assert cli_main([*argv, *extra, "--out", str(out)]) == 0
            trace = json.loads((out / "retail-guidance.trace.json").read_text(encoding="utf-8"))
            assert trace["flags"] == flags, extra

    @staticmethod
    def run_edited_hospital(tmp_path, edit) -> int:
        """``svcgov run`` of a copy of the hospital pack whose scenario
        ``edit`` changed, writing to ``out/sub`` under ``tmp_path``."""
        shutil.copytree(str(pack_dir("hospital")), tmp_path / "hospital")
        path = tmp_path / "hospital" / "scenario.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        edit(data)
        path.write_text(json.dumps(data), encoding="utf-8")
        config = tmp_path / "hospital" / "config.json"
        return cli_main(["run", "--scenario", str(path), "--config", str(config), "--out", str(tmp_path / "out" / "sub")])

    @pytest.mark.parametrize(
        "name",
        ["../escaped", "a/b", "", ".", "..", "a\\b", "a\0b"],
        ids=["parent", "subdirectory", "empty", "dot", "dot-dot", "backslash", "nul"],
    )
    def test_run_refuses_a_scenario_name_that_is_not_a_file_name(self, tmp_path, capsys, name):
        # the name names the output files, so it could write outside --out
        assert self.run_edited_hospital(tmp_path, lambda d: d.update(name=name)) == 3
        err = capsys.readouterr().err
        assert "error validation" in err and "scenario key 'name'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, path",
        [
            (
                lambda d: d["initial_state"]["request"]["params"].update(priority={"a": 1}),
                "initial_state.request.params key 'priority'",
            ),
            (
                lambda d: d["initial_state"]["request"]["params"].update(priority=10**400),
                "initial_state.request.params key 'priority'",
            ),
            (
                lambda d: d["initial_state"]["request"]["params"].update(priority=[10**400, "s"]),
                "initial_state.request.params key 'priority'",
            ),
            (lambda d: d["initial_state"]["request"].update(deadline=10**400), "initial_state.request key 'deadline'"),
            (lambda d: d["events"].insert(0, {"tick": 1, "patches": [["deadline", 10**400]]}), "events[0].patches[0][1]"),
        ],
        ids=["param-object", "huge-priority", "huge-priority-with-unit", "huge-deadline", "huge-deadline-patch"],
    )
    def test_run_refuses_a_request_value_that_does_not_lift_by_its_path(self, tmp_path, capsys, edit, path):
        # refused where it is read, not as a Python error when the state is lifted
        assert self.run_edited_hospital(tmp_path, edit) == 3
        err = capsys.readouterr().err
        assert "error validation" in err and path in err
        assert "Traceback" not in err and "unhashable" not in err and "too large" not in err

    @pytest.mark.parametrize(
        "edit, path",
        [
            (
                lambda d: d["initial_hypothesis"]["roles"].append({"id": "r_nav", "requires": ["fn:ItemPickup"]}),
                "initial_hypothesis.roles[4] key 'id'",
            ),
            (lambda d: d["assertions"]["individuals"].append(["f.nav", "fn:ItemPickup"]), "assertions.individuals[8][0]"),
            (lambda d: d["registry"].append(dict(d["registry"][3], provides=[])), "registry[8] key 'component'"),
            (
                lambda d: d["initial_state"]["agents"].append(["R1", "ag:DeliveryRobot", True, 0.5, "ward"]),
                "initial_state.agents[5][0]",
            ),
            (
                lambda d: d["initial_state"].update(components=[["r1_nav", "ag:NavUnitMk1", "ok"]] * 2),
                "initial_state.components[1][0]",
            ),
        ],
        ids=["role", "individual", "registry-component", "agent", "state-component"],
    )
    def test_run_refuses_a_repeated_id_by_its_path(self, tmp_path, capsys, edit, path):
        # a repeated id is not a second entry: soundness would read only the
        # first role, and the last individual, registry entry or agent would win
        assert self.run_edited_hospital(tmp_path, edit) == 3
        err = capsys.readouterr().err
        assert "error validation" in err and path in err and "repeats" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def run_edited_hospital_config(self, tmp_path, edit) -> int:
        """``svcgov run`` of the hospital scenario with a copy of its config that ``edit`` changed."""
        data = hospital_config_data()
        edit(data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        scenario = pack_dir("hospital") / "scenario.json"
        return cli_main(["run", "--scenario", str(scenario), "--config", str(config), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "edit, key",
        [
            (
                lambda d: d["core"]["identity"].update(
                    weights={"request_class": -0.5, "outputs": 1.5, "safety": 0, "interactions": 0}
                ),
                "weights must be nonnegative: request_class",
            ),
            (lambda d: d.update(reuse_penalty=-2), "reuse_penalty must be nonnegative"),
            (lambda d: d.update(reuse_bonus=-1), "reuse_bonus must be nonnegative"),
        ],
        ids=["identity-weight", "reuse-penalty", "reuse-bonus"],
    )
    def test_run_refuses_a_config_value_whose_sign_inverts_its_rule(self, tmp_path, capsys, edit, key):
        # a negative identity weight scores a dropped function above 1; a
        # negative penalty rewards matched failures, a negative bonus punishes
        # successes
        assert self.run_edited_hospital_config(tmp_path, edit) == 4
        err = capsys.readouterr().err
        assert "error config" in err and key in err
        assert "Traceback" not in err

    def test_run_refuses_a_prior_weight_whose_complexity_overflows(self, tmp_path, capsys):
        # each weight is finite, but 1e308 per role is past the largest float
        # for any graph of two roles or more
        assert self.run_edited_hospital_config(tmp_path, lambda d: d["prior"].update(node=1e308)) == 4
        err = capsys.readouterr().err
        assert "error config" in err and "section 'prior': key 'node'" in err
        assert "Traceback" not in err

    def test_run_refuses_a_switch_whose_cost_and_residual_overflow(self, tmp_path, capsys):
        def edit(data):
            data["switch_model"]["costs"][0][2] = data["switch_model"]["residuals"][0][2] = 1e308

        assert self.run_edited_hospital_config(tmp_path, edit) == 4
        err = capsys.readouterr().err
        assert "error config" in err and "C(routine, emergency)" in err and "key 'switch_model'" in err
        assert "Traceback" not in err

    def test_run_scores_latencies_too_long_to_sum_in_finite_numbers(self, tmp_path, capsys):
        # each latency fits a float, their sum does not: the task score is 0
        def edit(data):
            for rule in data["initial_hypothesis"]["policy"][:2]:
                rule["latency"] = 10**308

        assert self.run_edited_hospital(tmp_path, edit) == 0
        assert "Traceback" not in capsys.readouterr().err
        text = (tmp_path / "out" / "sub" / "hospital-delivery.trace.json").read_text(encoding="utf-8")
        json.loads(text, parse_constant=lambda name: pytest.fail(f"trace holds {name}"))

    def test_run_refuses_a_latency_that_no_float_holds(self, tmp_path, capsys):
        def edit(data):
            data["initial_hypothesis"]["policy"][0]["latency"] = 10**400

        assert self.run_edited_hospital(tmp_path, edit) == 3
        err = capsys.readouterr().err
        assert "error validation" in err and "key 'latency'" in err and "an integer that a float can hold" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", [["--scenario", "/nonexistent.json"], ["--config", "/nonexistent.json"]])
    def test_run_refuses_a_pack_with_a_scenario_or_config(self, capsys, extra):
        assert cli_main(["run", "--pack", "hospital", *extra]) == 2
        captured = capsys.readouterr()
        assert "error usage" in captured.err and "run complete" not in captured.out

    def test_packs_load_from_a_zipped_package(self, tmp_path):
        package = Path(svcgov.__file__).parent
        archive = tmp_path / "svcgov.zip"
        with zipfile.ZipFile(archive, "w") as zipped:
            for path in sorted(package.rglob("*")):
                if path.is_file() and "__pycache__" not in path.parts:
                    zipped.write(path, path.relative_to(package.parent))
        # -S leaves out site-packages, so the only svcgov on the path is the archive
        env = {**os.environ, "PYTHONPATH": str(archive)}
        for argv, expected in ((["validate"], "pack ok: retail"), (["run", "--pack", "retail"], "run complete")):
            done = subprocess.run(
                [sys.executable, "-S", "-m", "svcgov.harness.cli", *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            assert expected in done.stdout

    def test_demo_prints_the_witness_verdict(self, capsys):
        assert cli_main(["demo", "strict-extension"]) == 0
        out = capsys.readouterr().out
        assert "ontology-conformant: BOTH" in out
        assert "fully-admissible: ONE" in out

    def test_bench_unknown_family_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", "--family", "time-travel", "--seeds", "0"])
        assert exc.value.code == 2

    def test_bench_non_integer_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", "--family", "substitution", "--seeds", "a"])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_bench_empty_seed_list_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", "--family", "substitution", "--seeds", ","])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_bench_repeated_seed_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", "--family", "substitution", "--seeds", "0,0", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seeds" in err and "more than once: 0" in err
        assert list(tmp_path.iterdir()) == []

    def test_bench_repeated_subject_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            argv = ["--family", "substitution", "--subject", "full,full", "--seeds", "0", "--out", str(tmp_path)]
            cli_main(["bench", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--subject" in err and "more than once: full" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "subjects, named",
        [("full,", "''"), (",full", "''"), ("fulll", "'fulll'"), ("full,ontology_only", "'ontology_only'")],
    )
    def test_bench_unknown_or_empty_subject_is_a_usage_error(self, tmp_path, capsys, subjects, named):
        # refused before any subject runs, so nothing is printed or written
        with pytest.raises(SystemExit) as exc:
            argv = ["--family", "substitution", "--subject", subjects, "--seeds", "0", "--out", str(tmp_path)]
            cli_main(["bench", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "--subject" in err and f"unknown subjects: {named};" in err and "expected one of full," in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_compare_non_utf8_report_exits_three(self, tmp_path, capsys):
        report = tmp_path / "r.report.json"
        report.write_bytes(b'{"family": "\xff"}')
        assert cli_main(["compare", str(report), str(report)]) == 3
        err = capsys.readouterr().err
        assert "error parse" in err and "report" in err
        assert "Traceback" not in err

    @staticmethod
    def write_reports(tmp_path, subjects) -> list[str]:
        paths = []
        for subject in subjects:
            path = tmp_path / f"{subject}.report.json"
            path.write_text(bench.report_to_json(bench.run_benchmark("substitution", subject, [0])), encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_compare_refuses_a_repeated_subject(self, tmp_path, capsys):
        (full,) = self.write_reports(tmp_path, ["full"])
        copy = tmp_path / "copy.report.json"
        shutil.copy(full, copy)
        for argv in ([full, full], [full, str(copy)]):
            assert cli_main(["compare", *argv]) == 5
            out, err = capsys.readouterr()
            assert out == "" and "error incomparable-reports: subject given more than once: full;" in err

    def test_compare_without_the_full_stack_names_its_reference(self, tmp_path, capsys):
        assert cli_main(["compare", *self.write_reports(tmp_path, ["ontology-only", "heuristic-memory"])]) == 0
        verdicts = [line for line in capsys.readouterr().out.splitlines() if line.startswith("verdict ")]
        assert len(verdicts) == 5
        assert all(line.split(": ")[1].startswith("ontology-only ") for line in verdicts), verdicts

    def test_bench_and_compare_round_trip(self, tmp_path, capsys):
        rep = tmp_path / "rep"
        code = cli_main(
            [
                "bench",
                "--family",
                "substitution",
                "--subject",
                "full,ontology-only",
                "--seeds",
                "0",
                "--out",
                str(rep),
            ]
        )
        assert code == 0
        reports = sorted(rep.glob("*.report.json"))
        assert len(reports) == 2
        assert (rep / "substitution.compare.csv").exists()
        assert cli_main(["compare", *map(str, reports)]) == 0
        assert "verdict" in capsys.readouterr().out

    def test_run_with_persisted_store(self, tmp_path):
        from svcgov.memory import persist
        from svcgov.harness.packs import load_pack

        scenario, cfg = load_pack("retail")
        store = run(scenario, cfg).store
        store_path = tmp_path / "mem.store"
        persist(store, store_path)
        assert cli_main(["run", "--pack", "retail", "--store", str(store_path)]) == 0
