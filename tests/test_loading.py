"""The strict field reader behind every loader: path-named refusals,
wire-key round trips, one CLI refusal per formerly accepted typo, and a
mutation fuzz over the shipped config, scenario and a persisted store."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svcgov.canon import sha256_hex
from svcgov.certificates import CertContext, Certificate
from svcgov.certify import RegimeSwitchModel, certify_capacity
from svcgov.errors import ConfigError, CorruptStore, GovernanceError, MalformedTransformation, ParseError, ValidationError
from svcgov.evaluation import (
    EvaluatorWeights,
    IdentitySpec,
    InvariantCore,
    Regime,
    RegimeBudgets,
    SafetyPredicate,
    StructuralPrior,
)
from svcgov.fields import Fields, array, integer, number, read, row, text
from svcgov.harness import bench
from svcgov.harness.cli import _fail
from svcgov.harness.cli import main as cli_main
from svcgov.harness.packs import PACK_NAMES, load_pack, pack_dir
from svcgov.harness.scenario import (
    ScenarioEvent,
    assertions_from_data,
    config_from_data,
    scenario_from_data,
    scenario_to_data,
)
from svcgov.memory import FailureSignature, MemoryRecord, Motif, load, persist
from svcgov.model import (
    Component,
    Edge,
    Hypothesis,
    InterfaceContract,
    PolicyRule,
    RawPlatformState,
    Role,
    SignalCondition,
)
from svcgov.orchestrator import GateFlags, run
from svcgov.transform import (
    Attachment,
    TransformationGrammar,
    VariantRule,
    transformation_from_data,
    transformation_to_data,
)

EXIT_CODES = {"config": 4, "scenario": 3, "store": 5, "report": 3}


def pack_json(name: str, file: str) -> dict:
    return json.loads((pack_dir(name) / file).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# The reader
# ---------------------------------------------------------------------------


def _pair(data):
    r = Fields(data)
    return r.build(tuple, (r.get("a", number), r.get("b", array(row(text, integer)), ())))


class TestReader:
    def test_reads_kinds_and_defaults(self):
        assert _pair({"a": 8}) == (8.0, ())
        assert isinstance(_pair({"a": 8})[0], float)
        assert _pair({"a": 1.5, "b": [["x", 2]]}) == (1.5, (("x", 2),))

    @pytest.mark.parametrize(
        "data, expected",
        [
            ({}, "doc key 'a' is missing"),
            ({"a": "1"}, "doc key 'a' must be a finite number, got '1'"),
            ({"a": True}, "doc key 'a' must be a finite number, got True"),
            ({"a": float("nan")}, "doc key 'a' must be a finite number"),
            ({"a": 10**400}, "doc key 'a' must be a finite number"),
            ({"a": 1, "c": 2}, "unknown doc keys: c"),
            ({"a": 1, "b": [["x", 2], ["y"]]}, "doc section 'b': b[1] must be an array of 2 items"),
            ({"a": 1, "b": [["x", 2.0]]}, "doc section 'b': b[0][1] must be an integer, got 2.0"),
            ([], "doc must be an object, got []"),
        ],
    )
    def test_each_problem_is_named_by_its_path(self, data, expected):
        with pytest.raises(ValidationError) as err:
            read(ValidationError, "doc", _pair, data)
        assert expected in str(err.value)

    def test_every_problem_is_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            read(ConfigError, "doc", _pair, {"a": "x", "b": [["x", "y"], 3], "typo": 1})
        message = str(err.value)
        for part in ("doc key 'a'", "b[0][1] must be an integer", "b[1] must be an array", "unknown doc keys: typo"):
            assert part in message


# ---------------------------------------------------------------------------
# Round trips: to_data and the reader agree on every wire key
# ---------------------------------------------------------------------------


def _hypothesis_parts(h: Hypothesis):
    yield Hypothesis, h
    for role in h.roles:
        yield Role, role
    for edge in h.edges:
        yield Edge, edge
        yield InterfaceContract, edge.contract
    for _, comp in h.assignment:
        yield Component, comp
    for rule in h.policy:
        yield PolicyRule, rule
        for cond in rule.guard:
            yield SignalCondition, cond


def _loadables(scenario, cfg, store):
    """(loader, value) for every loadable value of a scenario, its config and a store."""
    yield RawPlatformState.from_data, scenario.initial_state
    yield from ((c.from_data, v) for c, v in _hypothesis_parts(scenario.initial_hypothesis))
    for comp in scenario.registry:
        yield Component.from_data, comp
    for event in scenario.events:
        yield ScenarioEvent.from_data, event
    for regime in cfg.regimes:
        yield Regime.from_data, regime
        yield EvaluatorWeights.from_data, regime.weights
        yield RegimeBudgets.from_data, regime.budgets
    yield InvariantCore.from_data, cfg.core
    yield IdentitySpec.from_data, cfg.core.identity
    for predicate in cfg.core.predicates:
        yield SafetyPredicate.from_data, predicate
    yield StructuralPrior.from_data, cfg.prior
    yield RegimeSwitchModel.from_data, cfg.switch_model
    yield GateFlags.from_data, cfg.flags
    yield TransformationGrammar.from_data, cfg.grammar
    for _, rule in cfg.grammar.variants:
        yield VariantRule.from_data, rule
    for tau in (*cfg.grammar.addable, *cfg.grammar.constraint_updates, cfg.fallback):
        yield transformation_from_data, tau
    for attachment in cfg.fallback.attach:
        yield Attachment.from_data, attachment
    for rec in store.records:
        yield MemoryRecord.from_data, rec
        if rec.certificate is not None:
            yield Certificate.from_data, rec.certificate
            yield CertContext.from_data, rec.certificate.context
        if rec.failure_signature is not None:
            yield FailureSignature.from_data, rec.failure_signature
            yield Motif.from_data, rec.failure_signature.motif
    for _, graph in store.graphs:
        yield from ((c.from_data, v) for c, v in _hypothesis_parts(graph))
    for cert in store.certificates:
        yield Certificate.from_data, cert


#: Both packs with the store of a run, and seed 0 of each bench family with its store.
ROUND_TRIP_CASES = ("hospital", "retail", *bench.FAMILY_GENERATORS)


@functools.lru_cache(maxsize=None)
def _round_trip_case(name: str) -> tuple:
    if name in bench.FAMILY_GENERATORS:
        return bench.FAMILY_GENERATORS[name](0)
    scenario, cfg = load_pack(name)
    return scenario, cfg, run(scenario, cfg).store


@pytest.mark.parametrize("name", ROUND_TRIP_CASES)
def test_every_loader_reads_back_what_to_data_wrote(name):
    scenario, cfg, store = _round_trip_case(name)
    for loader, value in _loadables(scenario, cfg, store):
        data = transformation_to_data(value) if loader is transformation_from_data else value.to_data()
        assert loader(json.loads(json.dumps(data))) == value
    assert assertions_from_data(scenario_to_data(scenario, "")["assertions"]) == scenario.assertions


def test_the_round_trips_reach_every_loader():
    reached = {loader for name in ROUND_TRIP_CASES for loader, _ in _loadables(*_round_trip_case(name))}
    assert len(reached) == 26


ROUND_TRIP_REPORT = bench.MetricsReport("substitution", "full", (0, 1), 1.0, 0.5, 2.0, 0.0, 0.25, 3)


def test_metrics_report_reads_back_what_to_data_wrote():
    report = ROUND_TRIP_REPORT
    assert bench.report_from_json(bench.report_to_json(report)) == report


def _metric(name, value):
    return lambda data: data["metrics"].update({name: value})


#: Documents that ``run_benchmark`` can never write, each with its refusal.
IMPOSSIBLE_REPORTS = {
    "negative-runs": (lambda data: data.update(runs=-1), "must equal the number of seeds, 2, got -1"),
    "negative-deployments": (lambda data: data.update(deployments=-3), "deployments must be nonnegative, got -3"),
    "negative-degradation": (_metric("bounded_degradation", -5.0), "bounded_degradation must be nonnegative"),
    "negative-reuse-gain": (_metric("certificate_reuse_gain", -2.0), "certificate_reuse_gain must be nonnegative"),
    "negative-regret": (_metric("structural_regret", -0.5), "structural_regret must be nonnegative"),
    "repeated-seed": (lambda data: data.update(seeds=[0, 0]), "seeds named more than once: 0"),
    "no-seeds": (lambda data: data.update(seeds=[], runs=0), "at least one seed is required"),
    "runs-not-seeds": (lambda data: data.update(runs=3), "must equal the number of seeds, 2, got 3"),
    "runs-missing": (lambda data: data.pop("runs"), "report key 'runs' is missing"),
}


@pytest.mark.parametrize("case", IMPOSSIBLE_REPORTS)
def test_impossible_report_is_refused(tmp_path, capsys, case):
    mutate, expected = IMPOSSIBLE_REPORTS[case]
    data = ROUND_TRIP_REPORT.to_data()
    mutate(data)
    with pytest.raises(ParseError, match=expected):
        bench.report_from_json(json.dumps(data))
    report = tmp_path / "report.json"
    report.write_text(json.dumps(data), encoding="utf-8")
    code, err = _cli(capsys, ["compare", str(report), str(report)])
    assert code == 3
    assert "error parse" in err and expected in err


# ---------------------------------------------------------------------------
# The CLI refuses each formerly accepted typo
# ---------------------------------------------------------------------------


def _cli(capsys, argv) -> tuple[int, str]:
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def _set(path, value):
    def mutate(d):
        for step in path[:-1]:
            d = d[step]
        d[path[-1]] = value

    return mutate


def _rename(path, new):
    def mutate(d):
        for step in path[:-1]:
            d = d[step]
        d[new] = d.pop(path[-1])

    return mutate


CONFIG_TYPOS = {
    "switch-cost-regime": (_set(("switch_model", "costs", 0, 0), "routin"), "undeclared regime 'routin'"),
    "switch-residual-regime": (
        _set(("switch_model", "residuals", 1, 1), "Routine"),
        "switch_model.residuals[1] names undeclared regime 'Routine'",
    ),
    "switch-recipe-regime": (
        _set(("switch_model", "recipes"), [["routine", "emergncy", [["speed", 0.5]]]]),
        "switch_model.recipes[0] names undeclared regime 'emergncy'",
    ),
    "duplicate-regime-label": (_set(("regimes", 0, "label"), "routine"), "duplicate regime label 'routine'"),
    "entry-signal": (
        _set(("regimes", 0, "entry", 0, 0, "signal"), "deadline_presure"),
        "unknown signal 'deadline_presure' (at regimes[0].entry[0][0])",
    ),
    "entry-op": (_set(("regimes", 0, "entry", 0, 0, "op"), "=>"), "unknown operator '=>'"),
    "weight-string": (_set(("regimes", 0, "weights", "task"), "3.0"), "regimes[0].weights key 'task'"),
    "budget-boolean": (_set(("regimes", 0, "budgets", "latency"), True), "regimes[0].budgets key 'latency'"),
    "weights-overflow": (
        lambda d: d["regimes"][0]["weights"].update(task=1e308, safety=1e308),
        "evaluator weights must sum to a finite number (at regimes[0] key 'weights')",
    ),
    "variant-sites": (
        _set(("grammar", "variants", "substitute", "sites"), "unhealthyy"),
        "grammar.variants.substitute key 'sites' must be one of 'any', 'unhealthy'",
    ),
    "trigger-signal": (
        _set(("grammar", "variants", "substitute", "triggers", 0, 0, "signal"), "health"),
        "unknown signal 'health'",
    ),
    "trigger-op": (
        _set(("grammar", "variants", "add_subservice", "triggers", 0, 0, "op"), "=<"),
        "unknown operator '=<' (at grammar.variants.add_subservice.triggers[0][0])",
    ),
    "regime-key": (_rename(("regimes", 0, "entry"), "entries"), "unknown regimes[0] keys: entries"),
    "budgets-key": (_set(("regimes", 0, "budgets", "latncy"), 8), "unknown regimes[0].budgets keys: latncy"),
    "prior-key": (_set(("prior", "nodes"), 1.0), "unknown prior keys: nodes"),
    "identity-weights-key": (
        _set(("core", "identity", "weights", "output"), 0.4),
        "unknown core.identity.weights keys: output",
    ),
    "predicate-key": (_set(("core", "predicates", 0, "parms"), {}), "unknown core.predicates[0] keys: parms"),
    "switch-model-key": (_rename(("switch_model", "residuals"), "residual"), "unknown switch_model keys: residual"),
    "switch-cost-duplicate": (
        lambda d: d["switch_model"]["costs"].append(["routine", "emergency", 9.0]),
        "costs declare a switch more than once: routine->emergency (at configuration key 'switch_model')",
    ),
    "switch-recipe-duplicate": (
        _set(("switch_model", "recipes"), [["routine", "emergency", []], ["routine", "emergency", [["speed", 0.5]]]]),
        "recipes declare a switch more than once: routine->emergency",
    ),
    "transport-distance-key": (_set(("transport_max_distance",), 0), "unknown configuration keys: transport_max_distance"),
    "core-mode": (_set(("core", "mode"), "hard-fail"), "unknown core keys: mode"),
    "switch-self-residual": (
        lambda d: d["switch_model"]["residuals"].append(["routine", "routine", 0.5]),
        "residual bound for routine->routine must be zero (at configuration key 'switch_model')",
    ),
    "switch-self-recipe": (
        _set(("switch_model", "recipes"), [["emergency", "emergency", [["speed", 0.5]]]]),
        "recipe for emergency->emergency would never apply: a regime is entered only by a switch "
        "(at configuration key 'switch_model')",
    ),
    # a predicate whose function is undeclared never holds once its flag is raised
    "predicate-function": (
        lambda d: d["core"]["predicates"].append(
            {"name": "oversight", "kind": "flag-requires-function", "params": {"flag": "x", "function": "fn:RemoteOversigt"}}
        ),
        "safety predicate 'oversight' function: undeclared concept fn:RemoteOversigt",
    ),
    # a fallback that is never type-sound could not be deployed at any step
    "prototype-requirement": (
        lambda d: [p["part"]["roles"][0].update(requires=["fn:RemoteOversigt"]) for p in (d["fallback"], *d["grammar"]["addable"])],
        "fallback: role r_supervise requirement: undeclared concept fn:RemoteOversigt",
    ),
    "prototype-attachment": (
        lambda d: [p["attach"][0]["contract"].update(events=["ia:Escalaton"]) for p in (d["fallback"], *d["grammar"]["addable"])],
        "grammar.addable[0]: attachment r_confirm->r_supervise contract: undeclared concept ia:Escalaton",
    ),
}

SCENARIO_TYPOS = {
    "ticks-key": (_rename(("ticks",), "tick"), "unknown scenario keys: tick"),
    "ticks-string": (_set(("ticks",), "5"), "scenario key 'ticks' must be an integer, got '5'"),
    "event-key": (_rename(("events", 0, "patches"), "patchs"), "unknown events[0] keys: patchs"),
    "registry-key": (_rename(("registry", 0, "provides"), "provide"), "unknown registry[0] keys: provide"),
    "patch-without-value": (
        lambda d: d["events"][0]["patches"].append(["battery", "R1"]),
        "events[0].patches[2] must be an array of 3 items",
    ),
    "patch-without-arguments": (
        lambda d: d["events"][0]["patches"].append(["deadline"]),
        "events[0].patches[2] must be an array of 2 items",
    ),
    "patch-argument-type": (
        lambda d: d["events"][0]["patches"].append(["availability", "R1", "no"]),
        "events[0].patches[2][2] must be true or false",
    ),
    "annotations-list": (_set(("annotations",), []), "scenario key 'annotations' must be an object"),
    "failure-code": (
        lambda d: d["events"][0]["patches"].append(["fail", "r1_nav", "runtim-failure"]),
        "events[0].patches[2][2] must be one of 'A1',",
    ),
    # a misspelled health is refused with its path, also on a tick past the
    # run, whose state is never lifted
    "health-value": (
        _set(("events",), [{"tick": 1, "patches": [["health", "r1_nav", "brokn"]]}]),
        "events[0].patches[0][2] must be one of 'ok', 'degraded', 'failed', got 'brokn'",
    ),
    "health-value-past-the-run": (
        _set(("events",), [{"tick": 9, "patches": [["health", "r1_nav", "brokn"]]}]),
        "events[0].patches[0][2] must be one of 'ok', 'degraded', 'failed', got 'brokn'",
    ),
    "initial-health-value": (
        _set(("initial_state", "components"), [["r1_nav", "ag:NavUnitMk1", "fine"]]),
        "initial_state.components[0][2] must be one of 'ok', 'degraded', 'failed', got 'fine'",
    ),
    # no patch adds an agent or a component, so a patch of one that the
    # state lacks would change nothing on any tick
    "patch-unknown-agent": (
        lambda d: d["events"][0]["patches"].append(["battery", "R9", 0.1]),
        "'R9' is no agent of the initial state (at events[0].patches[2][1])",
    ),
    "patch-unknown-component": (
        lambda d: d["events"][0]["patches"].append(["health", "nope", "failed"]),
        "'nope' is no component of the initial state (at events[0].patches[2][1])",
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_TYPOS))
def test_config_typo_exits_four(tmp_path, capsys, case):
    mutate, expected = CONFIG_TYPOS[case]
    data = pack_json("hospital", "config.json")
    mutate(data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    scenario = pack_dir("hospital") / "scenario.json"
    code, err = _cli(capsys, ["run", "--scenario", str(scenario), "--config", str(config)])
    assert code == 4
    assert "error config" in err and expected in err


@pytest.mark.parametrize("case", sorted(SCENARIO_TYPOS))
def test_scenario_typo_exits_three(tmp_path, capsys, case):
    mutate, expected = SCENARIO_TYPOS[case]
    data = pack_json("hospital", "scenario.json")
    data["ontology"] = str(pack_dir("hospital") / "ontology.txt")
    mutate(data)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data), encoding="utf-8")
    config = pack_dir("hospital") / "config.json"
    for argv in (["validate", "--scenario", str(scenario)], ["run", "--scenario", str(scenario), "--config", str(config)]):
        code, err = _cli(capsys, argv)
        assert code == 3
        assert "error validation" in err and expected in err


@pytest.mark.parametrize(
    "content, expected",
    [("{}", "report key 'metrics' is missing"), ("not json", "malformed report JSON")],
    ids=["empty-object", "not-json"],
)
def test_compare_refuses_a_malformed_report(tmp_path, capsys, content, expected):
    report = tmp_path / "report.json"
    report.write_text(content, encoding="utf-8")
    code, err = _cli(capsys, ["compare", str(report), str(report)])
    assert code == 3
    assert "error parse" in err and expected in err


@pytest.mark.parametrize("reader, code", [("scenario", 3), ("config", 3), ("report", 3), ("store", 5)])
def test_deeply_nested_json_is_refused_with_its_exit_code(tmp_path, capsys, reader, code):
    # text nested deeper than the JSON decoder recurses (an unclosed object
    # or array) makes it give up with a RecursionError, which each reader
    # refuses as it refuses any other text that is not JSON; the store line
    # is reached under a valid checksum.  100,000 levels is above the
    # decoder's limit on every supported Python: CPython 3.12 and later
    # count its nesting against a C limit of 8,000 or more, not against
    # sys.getrecursionlimit()
    document = '{"a":' * 100_000 if reader in ("scenario", "config") else "[" * 100_000
    path = tmp_path / reader
    if reader == "store":
        body = f"svcgov-memory v1\n{document}\n"
        document = body + f"checksum sha256:{sha256_hex(body)}\n"
    path.write_text(document, encoding="utf-8")
    argv = {
        "scenario": ["validate", "--scenario", str(path)],
        "config": ["validate", "--scenario", str(pack_dir("hospital") / "scenario.json"), "--config", str(path)],
        "report": ["compare", str(path), str(path)],
        "store": ["run", "--pack", "retail", "--store", str(path)],
    }[reader]
    status, err = _cli(capsys, argv)
    assert status == code
    assert "maximum recursion depth" in err and err.count("\n") == 1


def _named_twice(data: dict, path: tuple, key: str, value) -> str:
    """``data`` as JSON text in which the object at ``path`` names ``key``
    a second time, with ``value``, after its first value."""
    target = data
    for step in path:
        target = target[step]
    target[f"{key}~twin"] = value
    return json.dumps(data).replace(json.dumps(f"{key}~twin"), json.dumps(key))


@pytest.mark.parametrize("reader", ["scenario", "config", "report", "store"])
def test_a_key_named_twice_is_refused_with_its_exit_code(tmp_path, capsys, persisted_store, reader):
    # the decoder would keep the last value, so each reader refuses the key
    # under its JSON path; the scenario binds r_nav to r1_nav, then r2_nav
    path = tmp_path / reader
    scenario, config = (pack_dir("hospital") / name for name in ("scenario.json", "config.json"))
    if reader == "scenario":
        data = pack_json("hospital", "scenario.json")
        data["ontology"] = str(pack_dir("hospital") / "ontology.txt")
        twin = next(c for c in data["registry"] if c["component"] == "r2_nav")
        document = _named_twice(data, ("initial_hypothesis", "assignment"), "r_nav", twin)
        expected = "initial_hypothesis.assignment key 'r_nav' is named more than once"
        argv = ["validate", "--scenario", str(path), "--config", str(config)]
    elif reader == "config":
        document = _named_twice(pack_json("hospital", "config.json"), (), "drift_bound", 1e9)
        expected = "configuration key 'drift_bound' is named more than once"
        argv = ["validate", "--scenario", str(scenario), "--config", str(path)]
    elif reader == "report":
        document = _named_twice(ROUND_TRIP_REPORT.to_data(), ("metrics",), "structural_regret", 9.0)
        expected = "metrics key 'structural_regret' is named more than once"
        argv = ["compare", str(path), str(path)]
    else:
        _, header, entries = persisted_store
        first = _named_twice(copy.deepcopy(entries[0]), ("record",), "reuse_tag", "twin")
        body = "\n".join([header, first, *(json.dumps(e) for e in entries[1:])]) + "\n"
        document = body + f"checksum sha256:{sha256_hex(body)}\n"
        expected = "record key 'reuse_tag' is named more than once"
        argv = ["run", "--pack", "retail", "--store", str(path)]
    path.write_text(document, encoding="utf-8")
    status, err = _cli(capsys, argv)
    assert status == EXIT_CODES[reader]
    assert expected in err


@pytest.mark.parametrize("name", PACK_NAMES)
def test_no_shipped_pack_names_a_key_twice(name):
    objects = []
    for file in ("scenario.json", "config.json"):
        json.loads((pack_dir(name) / file).read_text(encoding="utf-8"), object_pairs_hook=objects.append)
    assert objects and all(len(dict(pairs)) == len(pairs) for pairs in objects)


# ---------------------------------------------------------------------------
# Values built directly: every range check refuses NaN, which the JSON
# reader never lets through
# ---------------------------------------------------------------------------

NAN = float("nan")

NAN_VALUES = {
    "identity-weight": lambda cfg: IdentitySpec(NAN, 0.4, 0.15, 0.2, 0.9),
    "prior-weight": lambda cfg: StructuralPrior(node_weight=NAN),
    "prior-bonus": lambda cfg: StructuralPrior(preferred=(("0" * 64, NAN),)),
    "regime-budget": lambda cfg: RegimeBudgets(NAN, 1, 1),
    "switch-cost": lambda cfg: RegimeSwitchModel(costs=(("a", "b", NAN),)),
    "switch-residual": lambda cfg: RegimeSwitchModel(residuals=(("a", "b", NAN),)),
    "reassignment-unit-cost": lambda cfg: RegimeSwitchModel(reassignment_unit_cost=NAN),
    "capacity-certifier-budget": lambda cfg: certify_capacity(
        cfg.fallback.part, cfg.prior, NAN, CertContext("routine", "")
    ),
    **{
        name: lambda cfg, name=name: dataclasses.replace(cfg, **{name: NAN})
        for name in ("capacity_budget", "drift_bound", "reuse_bonus", "reuse_penalty")
    },
}


@pytest.mark.parametrize("case", sorted(NAN_VALUES))
def test_a_nan_built_directly_is_a_config_error(case):
    _, cfg = load_pack("hospital")
    with pytest.raises(ConfigError):
        NAN_VALUES[case](cfg)


#: Values that each loader refuses first (``one_of``, ``declared_condition``,
#: ``TransformationGrammar.build``), built directly, with the error each raises.
UNCHECKED = SignalCondition("noise", "=>", 0.5)

BAD_VALUES = {
    "variant-sites": (lambda cfg: VariantRule(enabled=True, sites="unhealty"), ConfigError),
    "variant-trigger-op": (lambda cfg: VariantRule(enabled=True, triggers=((UNCHECKED,),)), ConfigError),
    "variant-trigger-signal": (
        lambda cfg: VariantRule(enabled=True, triggers=((SignalCondition("nois", ">", 0.5),),)),
        ConfigError,
    ),
    "regime-entry-op": (lambda cfg: dataclasses.replace(cfg.regimes[0], entry=((UNCHECKED,),)), ConfigError),
    "grammar-variant": (
        lambda cfg: TransformationGrammar(variants=(("bogus", VariantRule(enabled=True)),)),
        MalformedTransformation,
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_a_bad_value_built_directly_is_refused(case):
    _, cfg = load_pack("hospital")
    build, error = BAD_VALUES[case]
    with pytest.raises(error):
        build(cfg)


# ---------------------------------------------------------------------------
# Mutation fuzz: only governance errors escape, each with its exit code
# ---------------------------------------------------------------------------

#: A value of each JSON type, small enough that a loaded document stays cheap.
OTHER_VALUES = (None, True, False, 0, -1, 2.5, "", "x", "routine", "t:X", [], [1], {}, {"a": 1})


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, (*path, i))


def _typo(word: str, draw) -> str:
    if not word:
        return "x"
    i = draw(st.integers(0, len(word) - 1))
    return word[:i] + draw(st.sampled_from(["", "x", word[i] * 2])) + word[i + 1 :]


@st.composite
def mutated(draw, document):
    """``document`` with one to three keys dropped, values retyped, or
    keys and labels typo'd."""
    data = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(data) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        key, value = path[-1], parent[path[-1]]
        action = draw(st.sampled_from(["drop", "retype", "typo"]))
        if action == "drop":
            del parent[key]
        elif action == "retype" or not (isinstance(key, str) or isinstance(value, str)):
            parent[key] = copy.deepcopy(draw(st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(value)])))
        elif isinstance(key, str) and (not isinstance(value, str) or draw(st.booleans())):
            parent[_typo(key, draw)] = parent.pop(key)
        else:
            parent[key] = _typo(value, draw)
    return data


def _exit_code(exc: GovernanceError) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return _fail(exc)


def _loads_or_refuses(doc: str, load) -> None:
    try:
        load()
    except GovernanceError as exc:
        assert _exit_code(exc) == EXIT_CODES[doc], f"{type(exc).__name__}: {exc}"


HOSPITAL_CONFIG = pack_json("hospital", "config.json")
HOSPITAL_SCENARIO = pack_json("hospital", "scenario.json")
FUZZ = settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(data=mutated(HOSPITAL_CONFIG))
def test_mutated_config_loads_or_is_a_config_error(hospital, data):
    scenario, _ = hospital
    _loads_or_refuses("config", lambda: config_from_data(data, scenario.schema, scenario.assertions))


@FUZZ
@given(data=mutated(HOSPITAL_SCENARIO))
def test_mutated_scenario_loads_or_is_refused_as_invalid(data):
    _loads_or_refuses("scenario", lambda: scenario_from_data(data, base_dir=pack_dir("hospital")))


@pytest.fixture(scope="module")
def persisted_store(tmp_path_factory):
    scenario, cfg = load_pack("retail")
    path = tmp_path_factory.mktemp("store") / "retail.store"
    persist(run(scenario, cfg).store, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    return path, lines[0], [json.loads(line) for line in lines[1:-1]]


@FUZZ
@given(data=st.data())
def test_mutated_store_loads_or_is_corrupt(persisted_store, data):
    path, header, entries = persisted_store
    entries = list(entries)
    i = data.draw(st.integers(0, len(entries) - 1))
    entries[i] = data.draw(mutated(entries[i]))
    # a fresh checksum, so that the mutation reaches the decoder
    body = "\n".join([header, *(json.dumps(e) for e in entries)]) + "\n"
    path.write_text(body + f"checksum sha256:{sha256_hex(body)}\n", encoding="utf-8")
    _loads_or_refuses("store", lambda: load(path))


def test_exit_codes_follow_the_documents():
    assert [_exit_code(e) for e in (ConfigError("x"), ValidationError(["x"]), ParseError(["x"]), CorruptStore("x"))] == [
        4,
        3,
        3,
        5,
    ]
