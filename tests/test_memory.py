"""Memory operator: records, reuse scoring, quarantine, transport,
persistence."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svcgov.canon import canonical_dumps
from svcgov.certificates import CertContext, Certificate, CertRefusal, environment_digest
from svcgov.errors import CorruptStore, MalformedRecord
from svcgov.memory import (
    EMPTY_STORE,
    TRANSPORTABLE_KINDS,
    FailureSignature,
    MemoryRecord,
    MemoryStore,
    Motif,
    find_transportable,
    load,
    match_failure,
    motif_from_hypothesis,
    persist,
    record,
    reuse_score,
    transport_certificate,
)
from svcgov.model import semantic_lift
from svcgov.transform import Substitute, UpdateConstraint, apply

from conftest import (
    UNIT_A,
    UNIT_A1,
    UNIT_B,
    chain_hypothesis,
    cid,
    make_raw_state,
    write_checksummed_store,
)


def make_cert(kind: str, subject: str, z, schema, regime="base", tick=0) -> Certificate:
    return Certificate(
        kind=kind,
        subject_digest=subject,
        context=CertContext(regime, environment_digest(z, schema)),
        evidence=(("ok", True),),
        issued_at=tick,
    )


def failure(z, schema, motif: Motif, regime="base") -> FailureSignature:
    return FailureSignature(
        regime_label=regime,
        environment_digest=environment_digest(z, schema),
        motif=motif,
        obligation_code="runtime-failure",
    )


def logged_signatures(store) -> list:
    """Every failure signature in the store, in log order."""
    return [r.failure_signature for r in store.records if r.failure_signature is not None]


class TestRecord:
    def test_record_grows_the_log_by_one(self, simple_h):
        rec = MemoryRecord("base", simple_h.digest(), None, "success", None, "tag")
        store = record(EMPTY_STORE, rec, graph=simple_h)
        assert len(store) == 1
        assert store.graphs == ((simple_h.digest(), simple_h),)
        assert len(EMPTY_STORE) == 0  # prior store untouched

    def test_failed_record_requires_a_signature(self, simple_h):
        with pytest.raises(MalformedRecord):
            MemoryRecord("base", simple_h.digest(), None, "failed", None)

    def test_success_record_refuses_a_signature(self, schema, z, simple_h):
        sig = failure(z, schema, Motif.build({"s": cid("t:UnitA")}))
        with pytest.raises(MalformedRecord):
            MemoryRecord("base", simple_h.digest(), None, "success", sig)

    def test_graph_digest_must_match_record(self, simple_h):
        other = apply(UpdateConstraint("latency", 1.0), simple_h)
        rec = MemoryRecord("base", simple_h.digest(), None, "success", None)
        with pytest.raises(MalformedRecord):
            record(EMPTY_STORE, rec, graph=other)

    def test_graph_table_matches_its_rebuild_and_is_kept_when_held(self, tmp_path, simple_h):
        # the reference is the table rebuilt from the store's map and
        # re-sorted on every record; a held digest keeps the same tuple
        graphs = [apply(UpdateConstraint("latency", float(b)), simple_h) for b in range(6)]
        order = [3, 0, 5, 3, 1, 0, 4, 2, 5, 5]
        store = reference = EMPTY_STORE
        for i in order:
            g = graphs[i]
            rec = MemoryRecord("base", g.digest(), None, "success", None, f"t{i}")
            grown = record(store, rec, graph=g)
            table = dict(store.graphs)
            table.setdefault(g.digest(), g)
            reference = MemoryStore(reference.records + (rec,), tuple(sorted(table.items())))
            assert grown == reference
            assert (grown.graphs is store.graphs) == (g.digest() in dict(store.graphs))
            store = grown
        assert len(store.graphs) == len(graphs)
        persist(store, tmp_path / "fast.store")
        persist(reference, tmp_path / "reference.store")
        assert (tmp_path / "fast.store").read_bytes() == (tmp_path / "reference.store").read_bytes()


class TestReuseScore:
    def test_empty_store_scores_zero(self, schema, z, simple_h):
        env = environment_digest(z, schema)
        failures = match_failure(EMPTY_STORE, simple_h, env)
        assert reuse_score(EMPTY_STORE, simple_h, "base", env, 1.0, 2.0, failures) == 0.0

    def test_one_prior_success_scores_plus_bonus(self, schema, z, simple_h):
        rec = MemoryRecord("base", simple_h.digest(), None, "success", None)
        store = record(EMPTY_STORE, rec)
        env = environment_digest(z, schema)
        assert reuse_score(store, simple_h, "base", env, 1.5, 2.0, match_failure(store, simple_h, env)) == 1.5
        assert reuse_score(store, simple_h, "other", env, 1.0, 2.0, match_failure(store, simple_h, env)) == 0.0

    def test_two_failures_of_a_contained_motif_score_minus_two_penalties(self, schema, z, simple_h):
        motif = Motif.build({"s": cid("t:UnitA")})
        store = EMPTY_STORE
        for _ in range(2):
            rec = MemoryRecord("base", simple_h.digest(), None, "failed", failure(z, schema, motif))
            store = record(store, rec)
        env = environment_digest(z, schema)
        assert reuse_score(store, simple_h, "base", env, 1.0, 2.0, match_failure(store, simple_h, env)) == -4.0

    @pytest.mark.parametrize("seed", range(3))
    def test_reuse_score_equals_linear_scan(self, schema, assertions, simple_h, seed):
        rng = random.Random(seed)
        quiet = semantic_lift(make_raw_state(), schema, assertions)
        noisy = semantic_lift(make_raw_state(zone_descriptors=("t:Zone", "t:LoudZone")), schema, assertions)
        graphs = [simple_h, apply(UpdateConstraint("x", 1.0), simple_h)]
        regimes = ["base", "noisy"]
        store = EMPTY_STORE
        for _ in range(200):
            outcome, regime = rng.choice(["success", "degraded", "failed"]), rng.choice(regimes)
            digest, z = rng.choice(graphs).digest(), rng.choice([quiet, noisy])
            sig = failure(z, schema, Motif.build({"s": cid("t:UnitA")}), regime) if outcome == "failed" else None
            cert = make_cert("closure", digest, z, schema, regime) if outcome == "success" and rng.random() < 0.5 else None
            store = record(store, MemoryRecord(regime, digest, cert, outcome, sig))
        for env in (environment_digest(quiet, schema), environment_digest(noisy, schema)):
            for h in graphs:
                for label in regimes:
                    expected = 0.0
                    for rec in store.records:
                        if rec.outcome == "success" and rec.hypothesis_digest == h.digest() and rec.regime_label == label:
                            if rec.certificate is None or rec.certificate.context.environment_digest == env:
                                expected += 1.5
                    for rec in store.records:
                        sig = rec.failure_signature
                        if sig is not None and sig.environment_digest == env and sig.motif.matches(h):
                            expected -= 0.7
                    assert reuse_score(store, h, label, env, 1.5, 0.7, match_failure(store, h, env)) == expected

    def test_penalty_is_environment_qualified(self, schema, assertions, simple_h):
        noisy = semantic_lift(
            make_raw_state(zone_descriptors=("t:Zone", "t:LoudZone")), schema, assertions
        )
        quiet = semantic_lift(make_raw_state(), schema, assertions)
        motif = Motif.build({"s": cid("t:UnitA")})
        rec = MemoryRecord("base", simple_h.digest(), None, "failed", failure(noisy, schema, motif))
        store = record(EMPTY_STORE, rec)
        for z, expected in ((noisy, -2.0), (quiet, 0.0)):
            env = environment_digest(z, schema)
            assert reuse_score(store, simple_h, "base", env, 1.0, 2.0, match_failure(store, simple_h, env)) == expected


def brute_force_matches(motif: Motif, h) -> bool:
    """Exhaustive subgraph check over all injective slot-to-role maps."""
    slots = [s for s, _ in motif.nodes]
    concepts = dict(motif.nodes)
    roles = [rid for rid, _ in h.assignment]
    h_edges = {(e.from_role, e.to_role) for e in h.edges}
    assignment = h.assignment_map()
    for picks in itertools.permutations(roles, len(slots)):
        mapping = dict(zip(slots, picks))
        if all(assignment[mapping[s]].concept == concepts[s] for s in slots) and all(
            (mapping[a], mapping[b]) in h_edges for a, b in motif.edges
        ):
            return True
    return False


class TestMatchFailure:
    def test_no_failures_no_matches(self, schema, z, simple_h):
        assert match_failure(EMPTY_STORE, simple_h, environment_digest(z, schema)) == []

    def test_motif_in_wrong_environment_class_does_not_match(self, schema, assertions, simple_h):
        noisy = semantic_lift(
            make_raw_state(zone_descriptors=("t:Zone", "t:LoudZone")), schema, assertions
        )
        quiet = semantic_lift(make_raw_state(), schema, assertions)
        sig = failure(noisy, schema, Motif.build({"s": cid("t:UnitA")}))
        store = record(
            EMPTY_STORE, MemoryRecord("base", simple_h.digest(), None, "failed", sig)
        )
        assert match_failure(store, simple_h, environment_digest(noisy, schema)) == [sig]
        assert match_failure(store, simple_h, environment_digest(quiet, schema)) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_overlapping_motifs_match_like_brute_force(self, schema, z, seed):
        rng = random.Random(seed)
        h = chain_hypothesis(
            [("r1", "t:FA", UNIT_A), ("r2", "t:FB", UNIT_B), ("r3", "t:FA", UNIT_A1)]
        )
        concept_pool = [cid("t:UnitA"), cid("t:UnitA1"), cid("t:UnitB")]
        motifs = []
        for i in range(3):
            size = rng.randint(1, 3)
            nodes = {f"s{j}": rng.choice(concept_pool) for j in range(size)}
            edges = []
            if size >= 2 and rng.random() < 0.7:
                edges.append(("s0", "s1"))
            motifs.append(Motif.build(nodes, edges))
        store = EMPTY_STORE
        for motif in motifs:
            rec = MemoryRecord("base", h.digest(), None, "failed", failure(z, schema, motif))
            store = record(store, rec)
        matched = match_failure(store, h, environment_digest(z, schema))
        expected = [
            sig for sig in logged_signatures(store) if brute_force_matches(sig.motif, h)
        ]
        assert matched == expected

    def test_motif_from_hypothesis_induces_edges(self, simple_h):
        motif = motif_from_hypothesis(simple_h, ["r1", "r2"])
        assert motif.nodes == (("r1", cid("t:UnitA")), ("r2", cid("t:UnitB")))
        assert motif.edges == (("r1", "r2"),)
        assert motif.matches(simple_h)


class TestTransport:
    def test_identical_graph_same_context_transports_at_distance_zero(self, schema, z, simple_h):
        cert = make_cert("closure", simple_h.digest(), z, schema)
        store = MemoryStore(certificates=(cert,))
        moved = transport_certificate(store, cert, simple_h, environment_digest(z, schema), "base")
        assert isinstance(moved, Certificate)
        assert moved.transported
        assert moved.evidence_map()["transport_distance"] == 0
        assert moved.evidence_map()["transported_from"] == simple_h.digest()

    def test_stability_certificates_never_transport(self, schema, z, simple_h):
        cert = make_cert("stability", simple_h.digest(), z, schema)
        store = MemoryStore(certificates=(cert,))
        out = transport_certificate(store, cert, simple_h, environment_digest(z, schema), "base")
        assert isinstance(out, CertRefusal)
        assert "non-transportable" in out.reason

    def test_context_mismatch_refuses(self, schema, assertions, z, simple_h):
        cert = make_cert("closure", simple_h.digest(), z, schema)
        store = MemoryStore(certificates=(cert,))
        wrong_regime = transport_certificate(store, cert, simple_h, environment_digest(z, schema), "noisy")
        assert isinstance(wrong_regime, CertRefusal)
        noisy = semantic_lift(
            make_raw_state(zone_descriptors=("t:Zone", "t:LoudZone")), schema, assertions
        )
        wrong_env = transport_certificate(store, cert, simple_h, environment_digest(noisy, schema), "base")
        assert isinstance(wrong_env, CertRefusal)

    def test_unknown_certificate_refuses(self, schema, z, simple_h):
        cert = make_cert("closure", simple_h.digest(), z, schema)
        out = transport_certificate(EMPTY_STORE, cert, simple_h, environment_digest(z, schema), "base")
        assert isinstance(out, CertRefusal)

    def test_transport_conservatism_property(self, schema, z, simple_h):
        for kind in ("closure", "stability", "capacity", "invariance", "substitution", "composite"):
            cert = make_cert(kind, simple_h.digest(), z, schema)
            store = MemoryStore(certificates=(cert,))
            out = transport_certificate(store, cert, simple_h, environment_digest(z, schema), "base")
            if kind in ("closure", "capacity"):
                assert isinstance(out, Certificate)
            else:
                assert isinstance(out, CertRefusal)


def reference_find_transportable(store, kind, h2, environment, regime_label):
    """The pool scan that ``find_transportable`` replaced: every entry is
    deduplicated by its canonical text and run through the full
    ``transport_certificate``."""
    if kind not in TRANSPORTABLE_KINDS:
        return None
    seen: set[str] = set()
    pool = list(store.certificates) + [r.certificate for r in store.records if r.certificate]
    for cert in pool:
        key = canonical_dumps(cert.to_data())
        if cert.kind != kind or key in seen:
            continue
        seen.add(key)
        moved = transport_certificate(store, cert, h2, environment, regime_label)
        if isinstance(moved, Certificate):
            return moved
    return None


def transport_graphs(simple_h):
    """Subject and target graphs: g1 and g3 are one edit from g0, g2 two;
    g3 carries a constraint the others lack, so nothing reaches g0, g1 or
    g2 from it."""
    g1 = apply(Substitute("r1", "ua", UNIT_A1), simple_h)
    return [
        simple_h,
        g1,
        apply(UpdateConstraint("latency", 5.0), g1),
        apply(UpdateConstraint("extra", 1.0), simple_h),
    ]


#: One drawn certificate: (kind, regime, environment matches, subject index
#: into the graphs plus one unknown digest, `issued_at`).  A small space, so
#: duplicates are common, weighted so that several entries often transport
#: and the first hit decides.
CERT_SPECS = st.tuples(
    st.sampled_from(["closure", "closure", "capacity", "stability"]),
    st.sampled_from(["base", "base", "noisy"]),
    st.sampled_from([True, True, False]),
    st.integers(0, 4),
    st.integers(0, 2),
)


class TestFindTransportable:
    @given(
        loose=st.lists(CERT_SPECS, max_size=8),
        logged=st.lists(st.one_of(st.none(), CERT_SPECS), max_size=12),
        kept=st.lists(st.booleans(), min_size=4, max_size=4),
        target=st.integers(0, 3),
        kind=st.sampled_from(["closure", "closure", "capacity", "stability"]),
        regime_label=st.sampled_from(["base", "base", "noisy"]),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_agrees_with_the_pool_scan(
        self, schema, z, simple_h, loose, logged, kept, target, kind, regime_label
    ):
        graphs = transport_graphs(simple_h)
        subjects = [g.digest() for g in graphs] + ["0" * 64]  # the last is in no store
        env = environment_digest(z, schema)

        def cert(spec):
            cert_kind, regime, env_matches, subject, tick = spec
            context = CertContext(regime, env if env_matches else "elsewhere")
            return Certificate(cert_kind, subjects[subject], context, (("ok", True),), tick)

        records = tuple(
            MemoryRecord("base", subjects[0], None if spec is None else cert(spec), "success", None)
            for spec in logged
        )
        store = MemoryStore(
            records=records,
            graphs=tuple(sorted((g.digest(), g) for g, keep in zip(graphs, kept) if keep)),
            certificates=tuple(cert(spec) for spec in loose),
        )
        args = (kind, graphs[target], env, regime_label)
        assert find_transportable(store, *args) == reference_find_transportable(store, *args)

    def test_first_hit_in_pool_order_wins(self, schema, z, simple_h):
        g0 = simple_h
        logged = make_cert("closure", g0.digest(), z, schema, tick=1)
        loose = make_cert("closure", g0.digest(), z, schema, tick=2)
        store = MemoryStore(records=(MemoryRecord("base", g0.digest(), logged, "success", None),), certificates=(loose,))
        moved = find_transportable(store, "closure", g0, environment_digest(z, schema), "base")
        assert moved == loose.as_transported()  # loose certificates come first

    def test_distance_zero_measures_no_other_subject(self, schema, z, simple_h):
        # only the certificate about g0 itself transports; one about a graph
        # one edit away, or about one that g0 is not reachable from, is
        # refused with one reason
        g0, g1, _, g3 = transport_graphs(simple_h)
        env = environment_digest(z, schema)
        other = make_cert("closure", g1.digest(), z, schema)
        unreachable = make_cert("closure", g3.digest(), z, schema)
        same = make_cert("closure", g0.digest(), z, schema, tick=1)
        store = MemoryStore(
            graphs=tuple(sorted((g.digest(), g) for g in (g0, g1, g3))),
            certificates=(other, unreachable, same),
        )
        assert find_transportable(store, "closure", g0, env, "base") == same.as_transported()
        for cert in (other, unreachable):
            assert transport_certificate(store, cert, g0, env, "base") == CertRefusal("certificate is about another graph")

    def test_distance_zero_never_reads_the_graph_table(self, schema, z, simple_h):
        # a store without its graph table transports the same certificates
        g0, g1, _, g3 = transport_graphs(simple_h)
        env = environment_digest(z, schema)
        other = make_cert("closure", g1.digest(), z, schema)
        same = make_cert("closure", g0.digest(), z, schema, tick=1)
        store = MemoryStore(graphs=tuple(sorted((g.digest(), g) for g in (g0, g1))), certificates=(other, same))
        for held in (store, MemoryStore(certificates=store.certificates)):
            assert find_transportable(held, "closure", g0, env, "base") == same.as_transported()
            assert find_transportable(held, "closure", g1, env, "base") == other.as_transported()
            assert find_transportable(held, "closure", g3, env, "base") is None


def linear_has_certificate(store, cert) -> bool:
    """The log scan that the certificate index replaced."""
    return cert in store.certificates or any(r.certificate == cert for r in store.records)


def linear_match_failure(store, h, environment) -> list:
    """The signature scan that the failure index replaced: every signature
    in log order, its motif checked once per signature."""
    return [s for s in logged_signatures(store) if s.environment_digest == environment and s.motif.matches(h)]


def linear_reuse_score(store, h, e_label, environment, bonus, penalty) -> float:
    """The record scan that the success index replaced."""
    if not store.records:
        return 0.0
    score = 0.0
    for rec in store.records:
        if rec.outcome == "success" and rec.hypothesis_digest == h.digest() and rec.regime_label == e_label:
            if rec.certificate is None or rec.certificate.context.environment_digest == environment:
                score += bonus
    for _ in linear_match_failure(store, h, environment):
        score -= penalty
    return score


def transport_rules(cert, h2, environment, regime_label):
    """The transport rules in order: ``cert`` handed over to ``h2``, or the
    first rule that refuses it."""
    if cert.kind not in TRANSPORTABLE_KINDS:
        return CertRefusal(f"non-transportable kind {cert.kind!r}")
    if cert.context.regime_label != regime_label:
        return CertRefusal(
            f"regime mismatch: certificate is for {cert.context.regime_label!r}, current is {regime_label!r}"
        )
    if cert.context.environment_digest != environment:
        return CertRefusal("environment class mismatch")
    if cert.subject_digest != h2.digest():
        return CertRefusal("certificate is about another graph")
    return cert.as_transported()


def linear_transport(store, cert, h2, environment, regime_label):
    if not linear_has_certificate(store, cert):
        return CertRefusal("certificate is not present in the store")
    return transport_rules(cert, h2, environment, regime_label)


def linear_find_transportable(store, kind, h2, environment, regime_label):
    """The pool scan that the certificate index replaced: loose
    certificates, then record certificates, each in log order, each run
    through the transport rules."""
    if kind not in TRANSPORTABLE_KINDS:
        return None
    for cert in itertools.chain(store.certificates, (r.certificate for r in store.records)):
        if cert is not None and cert.kind == kind:
            moved = transport_rules(cert, h2, environment, regime_label)
            if isinstance(moved, Certificate):
                return moved
    return None


def failure_motifs():
    """Overlapping motifs: the first two occur in ``simple_h``, the second
    and third in the graphs with ``ua1`` at r1."""
    return [
        Motif.build({"s": cid("t:UnitA")}),
        Motif.build({"a": cid("t:UnitB")}),
        Motif.build({"s": cid("t:UnitA1"), "t": cid("t:UnitB")}, [("s", "t")]),
    ]


#: One drawn append: the store it grows (an index into the stores built so
#: far, counted back from the newest, so that 0 is a linear append and any
#: other value a branching one), the record's outcome, regime, subject
#: graph, environment class and motif, whether it carries a certificate
#: (and which), whether its graph is recorded, and the loose certificates.
APPENDS = st.tuples(
    st.integers(0, 3),
    st.sampled_from(["success", "success", "degraded", "failed", "failed"]),
    st.sampled_from(["base", "noisy"]),
    st.integers(0, 3),
    st.sampled_from(["quiet", "loud"]),
    st.integers(0, 2),
    st.one_of(st.none(), CERT_SPECS),
    st.booleans(),
    st.lists(CERT_SPECS, max_size=2),
)


class TestIndexedReadsEqualTheLinearScans:
    @given(appends=st.lists(APPENDS, min_size=1, max_size=10), loaded=st.booleans())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_append_sequences(self, tmp_path, simple_h, appends, loaded):
        graphs = transport_graphs(simple_h)
        subjects = [g.digest() for g in graphs] + ["0" * 64]  # the last is in no store
        motifs = failure_motifs()

        def cert(spec, env):
            kind, regime, env_matches, subject, tick = spec
            context = CertContext(regime, env if env_matches else "elsewhere")
            return Certificate(kind, subjects[subject], context, (("ok", True),), tick)

        stores = [EMPTY_STORE]
        for back, outcome, regime, graph, env, motif, cert_spec, with_graph, loose in appends:
            parent = stores[max(0, len(stores) - 1 - back)]
            sig = FailureSignature(regime, env, motifs[motif], "runtime-failure") if outcome == "failed" else None
            certificate = None if cert_spec is None else cert(cert_spec, env)
            rec = MemoryRecord(regime, graphs[graph].digest(), certificate, outcome, sig)
            loose_certs = [cert(spec, env) for spec in loose]
            stores.append(record(parent, rec, graph=graphs[graph] if with_graph else None, certificates=loose_certs))
        if loaded:  # a store read back from disk indexes its tuples on first read
            persist(stores[-1], tmp_path / "a.store")
            stores[-1] = load(tmp_path / "a.store")
            persist(stores[-1], tmp_path / "b.store")
            assert (tmp_path / "a.store").read_bytes() == (tmp_path / "b.store").read_bytes()

        # every store is read after the last append, so a branching append
        # that changed its parent's index would show here
        for store in stores:
            twin = MemoryStore(store.records, store.graphs, store.certificates)  # indexed from its tuples
            pool = list(store.certificates) + [r.certificate for r in store.records if r.certificate]
            outsider = Certificate("closure", subjects[0], CertContext("base", "quiet"), (("ok", False),), 9)
            for target in graphs:
                for env in ("quiet", "loud"):
                    matched = linear_match_failure(store, target, env)
                    assert match_failure(store, target, env) == match_failure(twin, target, env) == matched
                    for regime in ("base", "noisy"):
                        expected = linear_reuse_score(store, target, regime, env, 1.5, 0.7)
                        assert reuse_score(store, target, regime, env, 1.5, 0.7, matched) == expected
                        twin_matched = match_failure(twin, target, env)
                        assert reuse_score(twin, target, regime, env, 1.5, 0.7, twin_matched) == expected
                        for kind in ("closure", "capacity", "stability"):
                            args = (kind, target, env, regime)
                            expected = linear_find_transportable(store, *args)
                            assert find_transportable(store, *args) == expected
                            assert find_transportable(twin, *args) == expected
                        for c in pool[:4] + [outsider]:
                            args = (c, target, env, regime)
                            assert transport_certificate(store, *args) == linear_transport(store, *args)
            for c in pool + [outsider]:
                assert store.has_certificate(c) == twin.has_certificate(c) == linear_has_certificate(store, c)

    def test_signatures_keep_log_order_and_duplicates(self, schema, z, simple_h):
        # two motifs, both in ``simple_h``, recorded alternately: the matched
        # signatures interleave in log order, each match counted
        first, second, _ = failure_motifs()
        env = environment_digest(z, schema)
        store = EMPTY_STORE
        for motif in (first, second, first, first, second):
            store = record(store, MemoryRecord("base", simple_h.digest(), None, "failed", failure(z, schema, motif)))
        matched = match_failure(store, simple_h, env)
        assert [sig.motif for sig in matched] == [first, second, first, first, second]
        assert matched == linear_match_failure(store, simple_h, env)
        assert reuse_score(store, simple_h, "base", env, 1.0, 2.0, matched) == -10.0

    def test_each_distinct_motif_is_checked_once_per_call(self, schema, z, simple_h, monkeypatch):
        first, second, third = failure_motifs()
        store = EMPTY_STORE
        for motif in (first, second, third) * 4:
            store = record(store, MemoryRecord("base", simple_h.digest(), None, "failed", failure(z, schema, motif)))
        checked = []
        matches = Motif.matches
        monkeypatch.setattr(Motif, "matches", lambda motif, h: checked.append(motif) or matches(motif, h))
        assert len(match_failure(store, simple_h, environment_digest(z, schema))) == 8
        assert sorted(map(repr, checked)) == sorted(map(repr, (first, second, third)))

    def test_an_older_store_keeps_its_index(self, schema, z, simple_h):
        cert = make_cert("closure", simple_h.digest(), z, schema)
        env = environment_digest(z, schema)
        base = record(EMPTY_STORE, MemoryRecord("base", simple_h.digest(), None, "success", None))
        index = dict(base.index())
        grown = record(base, MemoryRecord("base", simple_h.digest(), cert, "success", None), certificates=(cert,))
        branch = record(base, MemoryRecord("noisy", simple_h.digest(), None, "success", None))
        assert base.index() == index and base.index() is not grown.index()
        assert find_transportable(base, "closure", simple_h, env, "base") is None
        assert find_transportable(grown, "closure", simple_h, env, "base") == cert.as_transported()
        assert find_transportable(branch, "closure", simple_h, env, "base") is None
        stores = (base, grown, branch)
        scores = [reuse_score(s, simple_h, "base", env, 1.0, 2.0, match_failure(s, simple_h, env)) for s in stores]
        assert scores == [1.0, 2.0, 1.0]
        # certificates may arrive as any iterable, read once
        loose = record(base, MemoryRecord("base", simple_h.digest(), None, "success", None), certificates=iter((cert,)))
        assert loose.certificates == (cert,) and loose.has_certificate(cert)
        assert find_transportable(loose, "closure", simple_h, env, "base") == cert.as_transported()


class TestQuarantine:
    def test_matched_candidate_never_gets_a_substitution_certificate(
        self, schema, assertions, simple_h, z
    ):
        from svcgov.certify import certify_substitution, RegimeSwitchModel
        from svcgov.certificates import Certificate as Cert
        from conftest import invariant_core, regime

        motif = Motif.build({"s": cid("t:UnitA1")})
        sig = failure(z, schema, motif)
        store = record(
            EMPTY_STORE, MemoryRecord("base", simple_h.digest(), None, "failed", sig)
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
            CertContext("base", environment_digest(z, schema)),
        )
        h2 = apply(Substitute("r1", "ua", UNIT_A1), simple_h)
        assert match_failure(store, h2, environment_digest(z, schema))  # candidate is matched
        assert not isinstance(out, Cert)


CONTEXT = {"regime": "r", "environment": "e"}


class TestPersistence:
    def test_empty_store_round_trip(self, tmp_path):
        path = tmp_path / "empty.store"
        persist(EMPTY_STORE, path)
        assert load(path) == EMPTY_STORE

    def test_hundred_record_round_trip_is_byte_identical(self, tmp_path, schema, z, simple_h):
        store = EMPTY_STORE
        for i in range(100):
            if i % 3 == 0:
                sig = failure(z, schema, Motif.build({"s": cid("t:UnitA")}))
                rec = MemoryRecord("base", simple_h.digest(), None, "failed", sig, f"t{i}")
                store = record(store, rec, graph=simple_h)
            else:
                cert = make_cert("closure", simple_h.digest(), z, schema, tick=i)
                rec = MemoryRecord("base", simple_h.digest(), cert, "success", None, f"t{i}")
                store = record(store, rec, certificates=(cert,))
        first, second = tmp_path / "a.store", tmp_path / "b.store"
        persist(store, first)
        loaded = load(first)
        assert loaded == store
        persist(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_file_is_corrupt(self, tmp_path, simple_h):
        path = tmp_path / "trunc.store"
        store = record(
            EMPTY_STORE, MemoryRecord("base", simple_h.digest(), None, "success", None)
        )
        persist(store, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CorruptStore):
            load(path)

    def test_tampered_content_is_corrupt(self, tmp_path, simple_h):
        path = tmp_path / "tamper.store"
        store = record(
            EMPTY_STORE, MemoryRecord("base", simple_h.digest(), None, "success", None)
        )
        persist(store, path)
        path.write_text(path.read_text().replace("success", "degraded"))
        with pytest.raises(CorruptStore):
            load(path)

    @pytest.mark.parametrize(
        "entry",
        [
            {"record": {"regime": "r"}},
            {"record": {"regime": "r", "hypothesis": "d", "outcome": "lost"}},
            {"record": {"regime": "r", "hypothesis": "d", "outcome": "failed"}},
            {"record": ["regime", "r"]},
            {
                "record": {
                    "regime": "r",
                    "hypothesis": "d",
                    "outcome": "failed",
                    "failure_signature": {
                        "regime": "r",
                        "environment": "e",
                        "motif": {"nodes": [["s", "t:UnitA"]]},
                        "code": "A9",
                    },
                }
            },
            {"certificate": {"kind": "closure", "subject": "d", "context": CONTEXT}},
            {"certificate": {"kind": "closure", "subject": "d", "context": None, "evidence": {"ok": True}}},
            {"graph_only": {"roles": [{"requires": ["t:FA"]}]}},
            {"graph_only": {"roles": [{"id": "r1", "requires": ["FA"]}]}},
            {"graph_only": {"constraints": {"latency": "fast"}}},
            ["record"],
        ],
    )
    def test_malformed_entry_with_valid_checksum_is_corrupt(self, tmp_path, entry):
        path = tmp_path / "malformed.store"
        write_checksummed_store(path, [entry])
        with pytest.raises(CorruptStore, match="store line 2"):
            load(path)

    def test_a_record_graph_without_the_record_digest_is_corrupt(self, tmp_path, simple_h):
        # ``record`` refuses this pair, so a store that holds it was edited;
        # filed under the record's digest, the graph table would hold a
        # graph under another graph's digest
        store = record(EMPTY_STORE, MemoryRecord("base", simple_h.digest(), None, "success", None), graph=simple_h)
        entry = {"record": store.records[0].to_data(), "graph": simple_h.to_data()}
        entry["graph"]["constraints"]["latency"] = 11.0
        path = tmp_path / "edited.store"
        write_checksummed_store(path, [entry])
        with pytest.raises(CorruptStore, match=rf"hypothesis {simple_h.digest()} \(at store line 2 key 'graph'\)"):
            load(path)
