"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line and enforcing its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import replace

import pytest

from svcgov.certify import (
    DriftLedger,
    RegimeSwitchModel,
    admissible,
    capacity_measure,
    certify_capacity,
    certify_closure,
    certify_invariance,
    certify_stability,
    certify_substitution,
    composed_drift_bound,
)
from svcgov.certificates import CertContext, Certificate, environment_digest
from svcgov.evaluation import (
    EvaluatorWeights,
    Regime,
    RegimeBudgets,
    detect_regime,
    identity_score,
    prior_complexity,
)
from svcgov.harness import baselines, bench
from svcgov.harness.demo import strict_extension
from svcgov.memory import EMPTY_STORE
from svcgov.model import (
    Edge,
    Hypothesis,
    PolicyRule,
    Role,
    interface_compatible,
    semantic_lift,
    type_soundness,
)
from svcgov.orchestrator import GateFlags, run
from svcgov.transform import (
    AddSubservice,
    Attachment,
    RemoveSubservice,
    Substitute,
    TransformationGrammar,
    UpdateConstraint,
    VariantRule,
    apply,
    compose,
    generate_candidates,
    transformation_to_data,
)

from conftest import (
    UNIT_A,
    UNIT_A1,
    chain_hypothesis,
    cid,
    contract,
    make_component,
    make_config,
    make_raw_state,
    pack_variant,
    regime as make_regime,
)

EPS = 1e-9


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {number:02d} [{name}]: {status} — {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Fuzz corpus shared by criteria 2 and 3
# ---------------------------------------------------------------------------


def _tick_states(scenario, cfg):
    raw = scenario.initial_state
    states = []
    for tick in range(scenario.ticks):
        raw, _ = scenario.patched(raw, tick)
        x = replace(raw, time=tick)
        z = semantic_lift(x, cfg.schema, cfg.assertions)
        states.append((tick, x, z))
    return states


def _fuzz_verdicts(count: int, seed: int, include_identity: bool = True):
    """Yield (verdict, h, h2-or-None, z, cfg) for ``count`` fuzzed
    transformations across both shipped packs."""
    from svcgov.harness.packs import load_pack
    from svcgov.orchestrator import registry_from_state

    rng = random.Random(seed)
    packs = []
    for name in ("hospital", "retail"):
        scenario, cfg = load_pack(name)
        if not include_identity:
            cfg = replace(cfg, core=replace(cfg.core, include_identity=False))
        states = _tick_states(scenario, cfg)
        exhaustive = replace(cfg.grammar, max_candidates=10**9)
        per_tick = []
        for tick, x, z in states:
            registry = list(registry_from_state(x, cfg.assertions, cfg.schema))
            e = detect_regime(cfg.regimes, z)
            candidates = generate_candidates(scenario.initial_hypothesis, z, exhaustive, registry)
            per_tick.append((tick, z, e, registry, candidates))
        packs.append((scenario, cfg, per_tick))

    function_pool = {
        "hospital": ["fn:Navigation", "fn:IndoorNavigation", "fn:ItemHandoff", "fn:Localization"],
        "retail": ["fn:IntentCapture", "fn:TouchIntent", "fn:RoutePlanning", "fn:Localization"],
    }
    produced = 0
    while produced < count:
        scenario, cfg, per_tick = packs[rng.randrange(len(packs))]
        tick, z, e, registry, candidates = per_tick[rng.randrange(len(per_tick))]
        h = scenario.initial_hypothesis
        kind = rng.random()
        if kind < 0.4 and candidates:
            tau = candidates[rng.randrange(len(candidates))]
        elif kind < 0.7:
            rid = rng.choice(h.role_ids())
            current = h.binding(rid)
            if rng.random() < 0.7 and registry:
                new = registry[rng.randrange(len(registry))]
            else:
                pool = function_pool[scenario.name.split("-")[0]]
                provides = tuple(rng.sample(pool, rng.randint(0, len(pool))))
                new = make_component(
                    f"synth{rng.randrange(999)}", str(current.concept), provides
                )
            tau = Substitute(rid, current.component_id, new)
        elif kind < 0.85:
            tau = UpdateConstraint(
                rng.choice(["latency", "speed", "volume", "safety.margin", "x"]),
                round(rng.uniform(0.1, 20.0), 3),
            )
        elif kind < 0.95:
            tau = RemoveSubservice(frozenset({rng.choice(h.sinks())}))
        else:
            tau = cfg.fallback
        verdict = admissible(tau, h, z, e, EMPTY_STORE, cfg, tick=tick)
        h2 = None if verdict.error else apply(tau, h)
        produced += 1
        yield verdict, h, h2, z, cfg, tau, e, tick


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_01_strict_extension_witness():
    start = time.monotonic()
    result = strict_extension()
    elapsed = time.monotonic() - start
    ok = (
        len(result.witnesses) == 2
        and all(w.consistent and w.sound for w in result.witnesses)
        and result.fully_admissible == 1
        and result.ontology_accepts == 2
        and elapsed < 1.0
    )
    report(
        1,
        "strict-extension",
        ok,
        f"ontology accepts {result.ontology_accepts}, fully admissible "
        f"{result.fully_admissible}, {elapsed:.3f}s",
    )


def test_02_boundary_iff():
    start = time.monotonic()
    total = 5000
    counterexamples = 0
    oracle_checked = 0
    rng = random.Random(20)
    for i, (verdict, h, h2, z, cfg, tau, e, tick) in enumerate(_fuzz_verdicts(total, seed=2)):
        gated_codes = verdict.violation_codes()
        if verdict.passed != (len(gated_codes) == 0):
            counterexamples += 1
        # independent oracle on a subsample: rerun each certifier and conjoin
        if h2 is not None and rng.random() < 0.05:
            oracle_checked += 1
            context = CertContext(e.label, environment_digest(z, cfg.schema))
            checks = [
                isinstance(
                    certify_closure(h2, cfg.schema, cfg.grammar, tau, context, tick), Certificate
                ),
                isinstance(
                    certify_stability(
                        h, h2, DriftLedger(bound=cfg.drift_bound), cfg.switch_model, e, e, context, tick
                    )[0],
                    Certificate,
                ),
                isinstance(
                    certify_capacity(
                        h2, cfg.prior, min(cfg.capacity_budget, e.budgets.complexity), context, tick
                    ),
                    Certificate,
                ),
                isinstance(
                    certify_invariance(h, h2, z, cfg.core, cfg.schema, context, tick), Certificate
                ),
            ]
            if isinstance(tau, Substitute):
                checks.append(
                    isinstance(
                        certify_substitution(
                            h.binding(tau.role_id),
                            tau.new_component,
                            h,
                            z,
                            EMPTY_STORE,
                            cfg.schema,
                            cfg.core,
                            cfg.switch_model,
                            e,
                            context,
                            tick,
                        ),
                        Certificate,
                    )
                )
            if verdict.passed != all(checks):
                counterexamples += 1

    single_fault = _single_fault_cases()
    elapsed = time.monotonic() - start
    ok = counterexamples == 0 and all(single_fault.values()) and elapsed < 60.0
    report(
        2,
        "boundary-iff",
        ok,
        f"{total} fuzzed, {oracle_checked} oracle-rechecked, "
        f"{counterexamples} counterexamples, single-fault {single_fault}, {elapsed:.1f}s",
    )


def _single_fault_cases() -> dict[str, bool]:
    """Constructed cases where exactly one of A1..A4 fails."""
    from svcgov.harness.packs import load_pack
    from svcgov.orchestrator import registry_from_state

    scenario, cfg = load_pack("hospital")
    states = _tick_states(scenario, cfg)
    tick, x, z = states[2]  # the battery-critical emergency tick
    e = detect_regime(cfg.regimes, z)
    h = scenario.initial_hypothesis
    out: dict[str, bool] = {}

    # A1 alone: an in-grammar attachment binding a live component that does
    # not provide the required function class
    arm_unit = next(c for c in scenario.registry if c.component_id == "r1_arm")
    unsound_part = Hypothesis.build(
        roles=[Role("r_x", frozenset({cid("fn:Navigation")}))],
        assignment={"r_x": arm_unit},
    )
    bad_add = AddSubservice(
        unsound_part,
        (Attachment("r_confirm", "r_x", contract()),),
        rationale="unsound-attach",
    )
    grammar_a1 = TransformationGrammar(
        variants=cfg.grammar.variants,
        addable=cfg.grammar.addable + (bad_add,),
        constraint_updates=cfg.grammar.constraint_updates,
        max_candidates=cfg.grammar.max_candidates,
    )
    verdict = admissible(bad_add, h, z, e, EMPTY_STORE, replace(cfg, grammar=grammar_a1), tick=tick)
    out["A1"] = verdict.violation_codes() == ("A1",) and not verdict.passed

    # A2 alone: the reroute constraint jump exceeds the emergency budget
    verdict = admissible(UpdateConstraint("latency", 16.0), h, z, e, EMPTY_STORE, cfg, tick=tick)
    out["A2"] = verdict.violation_codes() == ("A2",) and not verdict.passed

    # A3 alone: the supervision attachment under a tightened capacity budget
    tight = replace(cfg, capacity_budget=prior_complexity(cfg.prior, h) + 0.5)
    verdict = admissible(cfg.fallback, h, z, e, EMPTY_STORE, tight, tick=tick)
    out["A3"] = verdict.violation_codes() == ("A3",) and not verdict.passed

    # A4 alone: removing the handoff+confirmation stages drops outputs
    variants = dict(cfg.grammar.variants)
    variants["remove_subservice"] = VariantRule(enabled=True)
    grammar_a4 = TransformationGrammar(
        variants=tuple(sorted(variants.items())),
        addable=cfg.grammar.addable,
        constraint_updates=cfg.grammar.constraint_updates,
        max_candidates=cfg.grammar.max_candidates,
    )
    verdict = admissible(
        RemoveSubservice(frozenset({"r_confirm", "r_handoff"})),
        h,
        z,
        e,
        EMPTY_STORE,
        replace(cfg, grammar=grammar_a4),
        tick=tick,
    )
    out["A4"] = verdict.violation_codes() == ("A4",) and not verdict.passed
    return out


def test_03_identity_preservation():
    start = time.monotonic()
    total = 10_000
    admissible_count = 0
    below = 0
    for verdict, h, h2, z, cfg, tau, e, tick in _fuzz_verdicts(total, seed=3):
        if not verdict.passed or h2 is None:
            continue
        admissible_count += 1
        score = identity_score(cfg.core.identity, h, h2, z, cfg.schema)
        if score < cfg.core.identity.threshold - EPS:
            below += 1

    # with identity excluded from the core, the drift mode is exhibited
    exhibited = 0
    for verdict, h, h2, z, cfg, tau, e, tick in _fuzz_verdicts(2000, seed=31, include_identity=False):
        if verdict.passed and h2 is not None:
            score = identity_score(cfg.core.identity, h, h2, z, cfg.schema)
            if score < cfg.core.identity.threshold - EPS:
                exhibited += 1
    elapsed = time.monotonic() - start
    ok = below == 0 and admissible_count > 0 and exhibited >= 1 and elapsed < 120.0
    report(
        3,
        "identity-preservation",
        ok,
        f"{total} screened, {admissible_count} admissible, {below} below eta; "
        f"identity-excluded drift cases {exhibited}; {elapsed:.1f}s",
    )


def test_04_compositional_admissibility(schema, assertions):
    start = time.monotonic()
    families = 1000
    violations = 0
    rng = random.Random(4)
    pending = contract(obligations=("t:ObTrace",))

    for _ in range(families):
        m = rng.randint(2, 6)
        parts = []
        updates = []
        for i in range(m):
            unit = rng.choice([UNIT_A, UNIT_A1])
            part = chain_hypothesis(
                [(f"p{i}a", "t:FA", unit)],
                constraints={f"latency.p{i}": float(rng.randint(6, 12))},
                policy=(PolicyRule((), "notifies", f"p{i}a", cid("t:ObTrace"), latency=1),),
            )
            parts.append(part)
            roll = rng.random()
            if roll < 0.45:
                other = UNIT_A1 if unit is UNIT_A else UNIT_A
                updates.append(Substitute(f"p{i}a", unit.component_id, other))
            elif roll < 0.9:
                updates.append(
                    UpdateConstraint(f"latency.p{i}", float(rng.randint(3, 6)))  # tighten
                )
            # else: this part keeps its realization

        contracts = [pending] * (m - 1)
        if not all(
            interface_compatible(parts[i], parts[i + 1], contracts[i], schema) for i in range(m - 1)
        ):
            continue
        composed = compose(parts, contracts, schema)

        local_budget = 4.0
        grammar = TransformationGrammar.build(
            variants={
                "substitute": VariantRule(enabled=True, sites="any"),
                "update_constraint": VariantRule(enabled=True),
                "add_subservice": VariantRule(enabled=True),
            },
            addable=(make_config(schema, assertions).fallback,),
            constraint_updates=tuple(u for u in updates if isinstance(u, UpdateConstraint)),
            max_candidates=64,
        )
        interface_term = 0.5
        local_regime = make_regime(label="r", switching=local_budget)
        composed_regime = Regime(
            label="r",
            weights=EvaluatorWeights(1, 1, 1, 1, 1),
            budgets=RegimeBudgets(
                latency=12.0,
                switching_cost=m * local_budget + (m - 1) * interface_term,
                complexity=60.0 * m,
            ),
        )
        local_cfg = make_config(
            schema,
            assertions,
            grammar=grammar,
            capacity=60.0,
            drift_bound=local_budget,
            regimes=(local_regime,),
        )
        composed_cfg = make_config(
            schema,
            assertions,
            grammar=grammar,
            capacity=60.0 * m,
            drift_bound=composed_drift_bound([local_budget] * m, interface_term),
            regimes=(composed_regime,),
        )

        z_local = semantic_lift(make_raw_state(), schema, assertions)
        all_local_ok = True
        for i, tau in enumerate(updates):
            part = next(p for p in parts if tau_targets(tau, p))
            verdict = admissible(tau, part, z_local, local_regime, EMPTY_STORE, local_cfg)
            if not verdict.passed:
                all_local_ok = False
        if not all_local_ok:
            continue

        current = composed
        for tau in updates:
            verdict = admissible(
                tau, current, z_local, composed_regime, EMPTY_STORE, composed_cfg
            )
            if not verdict.passed:
                violations += 1
                break
            current = apply(tau, current)

    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 120.0
    report(
        4,
        "compositional-admissibility",
        ok,
        f"{families} families (m<=6), {violations} composed violations, {elapsed:.1f}s",
    )


def tau_targets(tau, part) -> bool:
    if isinstance(tau, Substitute):
        return part.role(tau.role_id) is not None
    if isinstance(tau, UpdateConstraint):
        return tau.name in part.constraint_map()
    return False


def test_05_drift_bound_arithmetic(schema, z, simple_h):
    from svcgov.certificates import CertContext

    start = time.monotonic()
    rng = random.Random(5)
    sequences = 100
    failures = 0
    for _ in range(sequences):
        k = rng.randint(1, 12)
        costs = [round(rng.uniform(0.2, 2.0), 6) for _ in range(k)]
        residuals = [round(rng.uniform(0.0, 0.6), 6) for _ in range(k)]
        labels = [f"e{i}" for i in range(k + 1)]
        model = RegimeSwitchModel(
            costs=tuple((labels[i], labels[i + 1], costs[i]) for i in range(k)),
            residuals=tuple((labels[i], labels[i + 1], residuals[i]) for i in range(k)),
        )
        regimes = [make_regime(label=l, switching=100.0) for l in labels]
        total = sum(c + r for c, r in zip(costs, residuals))
        context = CertContext("x", environment_digest(z, schema))

        ledger = DriftLedger(bound=total)  # inclusive bound: all certify
        certified = True
        for i in range(k):
            out, ledger = certify_stability(
                simple_h, simple_h, ledger, model, regimes[i], regimes[i + 1], context
            )
            certified = certified and isinstance(out, Certificate)
        if not certified or abs(ledger.total - total) > 1e-9:
            failures += 1

        # shave half the final charge off the bound: the last switch violates
        last_charge = costs[-1] + residuals[-1]
        tight = DriftLedger(bound=total - last_charge / 2)
        outcome = None
        for i in range(k):
            outcome, tight = certify_stability(
                simple_h, simple_h, tight, model, regimes[i], regimes[i + 1], context
            )
        if isinstance(outcome, Certificate) or not tight.valid:
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0
    report(5, "drift-bound-arithmetic", ok, f"{sequences} sequences, {failures} failures, {elapsed:.1f}s")


def test_06_capacity_monotonicity(hospital):
    start = time.monotonic()
    scenario, cfg = hospital
    registry = [
        next(c for c in scenario.registry if c.component_id == name)
        for name in ("r1_nav", "r2_nav", "r1_handoff", "cheap_handoff")
    ]
    requirements = [cid("fn:Navigation"), cid("fn:ItemHandoff"), cid("fn:HumanNotification")]

    raw_space: list[Hypothesis] = []
    typed_space: list[Hypothesis] = []
    role_names = ["a", "b", "c"]
    for k in (1, 2, 3):
        for chosen in itertools.combinations(range(3), k):
            roles = [Role(role_names[i], frozenset({requirements[i]})) for i in chosen]
            ids = [r.role_id for r in roles]
            pairs = [(x, y) for x in ids for y in ids if x != y]
            for edge_bits in range(2 ** len(pairs)):
                edges = [
                    Edge(pairs[j][0], pairs[j][1], contract())
                    for j in range(len(pairs))
                    if edge_bits >> j & 1
                ]
                for assignment in itertools.product(registry, repeat=k):
                    h = Hypothesis.build(roles, edges, dict(zip(ids, assignment)))
                    raw_space.append(h)
                    if type_soundness(h, cfg.schema).sound:
                        typed_space.append(h)

    raw_measure = capacity_measure(raw_space)
    typed_measure = capacity_measure(typed_space)
    typed_digests = {h.digest() for h in typed_space}
    raw_digests = {h.digest() for h in raw_space}
    elapsed = time.monotonic() - start
    ok = (
        typed_digests <= raw_digests
        and typed_measure <= raw_measure
        and typed_measure < raw_measure  # strict on the shipped registry
        and elapsed < 30.0
    )
    report(
        6,
        "capacity-monotonicity",
        ok,
        f"raw {raw_measure}, typed {typed_measure} (strictly smaller), {elapsed:.1f}s",
    )


def _selected_name(trace):
    if trace.selected is None:
        return None
    data = transformation_to_data(trace.selected)
    if data["variant"] in ("substitute", "rebind"):
        return f"substitute:{data['new']['component']}"
    return f"{data['variant']}:{data.get('name', data.get('rationale', ''))}"


def test_07_case_study_traces(hospital, retail):
    # hospital: the transfer is selected when all five conditions pass
    scenario, cfg = hospital
    result = run(scenario, cfg)
    decision = result.traces[scenario.annotation("decision_tick")]
    transfer_ok = _selected_name(decision) == "substitute:r2_nav"
    winner = decision.candidates[decision.selected_index]
    conditions = winner.verdict.substitution.certificate.evidence_map()["conditions"]
    five_ok = set(conditions) == {"S1", "S2", "S3", "S4", "S5"} and all(conditions.values())

    # hospital, seeded failure on the transfer target: supervised fallback
    priming, _ = pack_variant(
        "hospital",
        [
            {"tick": 2, "patches": [["battery", "R1", 0.12], ["health", "r1_nav", "degraded"]]},
            {"tick": 3, "patches": [["fail", "r2_nav", "runtime-failure"]]},
        ],
        4,
    )
    primed = run(priming, cfg).store
    seeded = run(scenario, cfg, primed)
    seeded_decision = seeded.traces[scenario.annotation("decision_tick")]
    fallback_ok = _selected_name(seeded_decision) == "add_subservice:escalate-supervision"
    transfer_trace = next(
        c
        for c in seeded_decision.candidates
        if transformation_to_data(c.transformation).get("new", {}).get("component") == "r2_nav"
    )
    s5_ok = "S5" in transfer_trace.verdict.violation_codes()

    # retail: regime switch charged exactly C(quiet, noisy) + eps
    r_scenario, r_cfg = retail
    r_result = run(r_scenario, r_cfg)
    r_decision = r_result.traces[r_scenario.annotation("decision_tick")]
    declared = r_cfg.switch_model.cost("quiet", "noisy") + r_cfg.switch_model.residual(
        "quiet", "noisy"
    )
    switch_ok = (
        r_decision.from_regime == "quiet"
        and r_decision.regime_label == "noisy"
        and abs(r_decision.ledger_total - declared) <= 1e-9
    )

    ok = transfer_ok and five_ok and fallback_ok and s5_ok and switch_ok
    report(
        7,
        "case-study-traces",
        ok,
        f"transfer={transfer_ok} five-conditions={five_ok} fallback={fallback_ok} "
        f"s5-block={s5_ok} switch-ledger={r_decision.ledger_total}=={declared}",
    )


def test_08_memory_path_dependence(retail):
    scenario, cfg = retail
    priming, _ = pack_variant(
        "retail",
        [
            {"tick": 3, "patches": [["zone+", "aisle2", "env:LoudAisle"], ["health", "speech_unit", "degraded"]]},
            {"tick": 4, "patches": [["fail", "touch_unit", "runtime-failure"]]},
        ],
        5,
    )
    primed = run(priming, cfg).store
    tick = scenario.annotation("decision_tick")
    empty_run = run(scenario, cfg)
    seeded_run = run(scenario, cfg, primed)
    empty_choice = _selected_name(empty_run.traces[tick])
    seeded_choice = _selected_name(seeded_run.traces[tick])
    ok = (
        empty_choice is not None
        and seeded_choice is not None
        and empty_choice != seeded_choice
    )
    report(
        8,
        "memory-path-dependence",
        ok,
        f"empty store selects {empty_choice}, seeded store selects {seeded_choice}",
    )


def test_09_determinism_and_ablation_fidelity():
    start = time.monotonic()
    seeds = list(range(20))
    mismatches = 0
    manual_flags = {
        "full": GateFlags(),
        "ontology-only": GateFlags(
            closure=True,
            stability=False,
            capacity=False,
            invariance=False,
            substitution=False,
            memory=False,
            regime_family=False,
        ),
        "typed-planner-no-memory": GateFlags(
            closure=True,
            stability=False,
            capacity=False,
            invariance=False,
            substitution=False,
            memory=False,
            regime_family=True,
        ),
        "heuristic-memory": GateFlags(
            closure=False,
            stability=False,
            capacity=False,
            invariance=False,
            substitution=False,
            memory=True,
            regime_family=False,
        ),
    }
    for seed in seeds:
        scenario, cfg, store = bench.FAMILY_GENERATORS["substitution"](seed)
        first = run(scenario, cfg, store).document("d", cfg)
        second = run(scenario, cfg, store).document("d", cfg)
        if first != second:
            mismatches += 1
        for subject, flags in manual_flags.items():
            preset_doc = run(scenario, baselines.configure(cfg, subject), store).document("d", cfg)
            manual_doc = run(scenario, cfg.ablated(flags), store).document("d", cfg)
            if preset_doc != manual_doc:
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0
    report(
        9,
        "determinism-and-ablation",
        ok,
        f"20 seeds x (repeat + 4 ablations), {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_10_falsification_direction():
    start = time.monotonic()
    seeds = list(range(100))
    problems = []
    for family in bench.FAMILIES:
        reports = {
            subject: bench.run_benchmark(family, subject, seeds)
            for subject in baselines.SUBJECTS
        }
        full = reports["full"]
        for subject in baselines.SUBJECTS:
            if subject == "full":
                continue
            other = reports[subject]
            if full.identity_preservation_rate < other.identity_preservation_rate - EPS:
                problems.append(f"{family}: identity vs {subject}")
            if full.safe_reconfiguration_rate < other.safe_reconfiguration_rate - EPS:
                problems.append(f"{family}: safety vs {subject}")
        onto = reports["ontology-only"]
        strictly_better = (
            full.identity_preservation_rate > onto.identity_preservation_rate + EPS
            or full.safe_reconfiguration_rate > onto.safe_reconfiguration_rate + EPS
        )
        if not strictly_better:
            problems.append(f"{family}: not strictly better than ontology-only")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 600.0
    report(
        10,
        "falsification-direction",
        ok,
        f"4 families x 100 seeds x 4 subjects, problems={problems or 'none'}, {elapsed:.1f}s",
    )
