"""The value records built for every screened candidate: a verdict's
obligation results, certificates and violations, the ledger entry, the core
report, the identity and score breakdowns and the candidate trace.  Each is
a ``NamedTuple``, so it is built, compared and hashed in C.  These tests pin
what callers and traces read of them: field names, order and defaults, the
``repr``, the canonical bytes of ``to_data``, value equality and hashing,
and that no field can be assigned.  The records that callers copy with
``dataclasses.replace`` or read with ``dataclasses.fields`` stay
dataclasses."""

from __future__ import annotations

import dataclasses

import pytest

from svcgov.canon import canonical_dumps
from svcgov.certificates import CertContext, Certificate, Violation
from svcgov.certify import AdmissibilityVerdict, DriftLedger, LedgerEntry, ObligationResult
from svcgov.errors import MalformedRecord
from svcgov.evaluation import CoreReport, EvaluatorWeights, IdentityBreakdown, ScoreBreakdown
from svcgov.orchestrator import CandidateTrace, DecisionTrace
from svcgov.transform import UpdateConstraint


def certificate() -> Certificate:
    context = CertContext("base", "eeee")
    return Certificate("capacity", "dddd", context, (("budget", 50.0), ("complexity", 3.5)), 7)


def violation() -> Violation:
    return Violation("A3", "complexity 3.5 exceeds budget 1", (("budget", 1.0), ("complexity", 3.5)))


def score() -> ScoreBreakdown:
    return ScoreBreakdown(0.5, 1.0, 1.0, 0.75, 0.0, EvaluatorWeights(1.0, 1.0, 1.0, 1.0, 1.0))


def candidate_trace() -> CandidateTrace:
    refused = ObligationResult("A3", False, True, None, violation())
    verdict = AdmissibilityVerdict(
        False, (("A3", refused),), None, 0.8, False, (), DriftLedger(50.0), 0, "bbbb", "aaaa"
    )
    return CandidateTrace(UpdateConstraint("latency", 8.0), verdict, score(), 0.0, 3.5)


CERTIFICATE_REPR = (
    "Certificate(kind='capacity', subject_digest='dddd', context=CertContext(regime_label='base', "
    "environment_digest='eeee'), evidence=(('budget', 50.0), ('complexity', 3.5)), issued_at=7, transported=False)"
)
CERTIFICATE_BYTES = (
    '{"context":{"environment":"eeee","regime":"base"},"evidence":{"budget":50.0,"complexity":3.5},'
    '"issued_at":7,"kind":"capacity","subject":"dddd","transported":false}'
)
VIOLATION_REPR = (
    "Violation(code='A3', message='complexity 3.5 exceeds budget 1', evidence=(('budget', 1.0), ('complexity', 3.5)))"
)
VIOLATION_BYTES = '{"code":"A3","evidence":{"budget":1.0,"complexity":3.5},"message":"complexity 3.5 exceeds budget 1"}'
SCORE_REPR = (
    "ScoreBreakdown(j_task=0.5, j_safety=1.0, j_semantic=1.0, j_cost=0.75, j_reuse=0.0, "
    "weights=EvaluatorWeights(task=1.0, safety=1.0, semantic=1.0, cost=1.0, reuse=1.0))"
)
SCORE_BYTES = '{"cost":0.75,"reuse":0.0,"safety":1.0,"semantic":1.0,"task":0.5,"total":3.25}'

#: name -> (record type, its fields in order, its defaults, a factory that
#: builds one value by hand, that value's repr, its canonical to_data bytes)
RECORDS = {
    "ObligationResult": (
        ObligationResult,
        ("code", "certified", "gated", "certificate", "violation"),
        {"certificate": None, "violation": None},
        lambda: ObligationResult("A3", True, True, certificate()),
        f"ObligationResult(code='A3', certified=True, gated=True, certificate={CERTIFICATE_REPR}, violation=None)",
        f'{{"certificate":{CERTIFICATE_BYTES},"certified":true,"code":"A3","gated":true,"passed":true,'
        '"violation":null}',
    ),
    "Certificate": (
        Certificate,
        ("kind", "subject_digest", "context", "evidence", "issued_at", "transported"),
        {"transported": False},
        certificate,
        CERTIFICATE_REPR,
        CERTIFICATE_BYTES,
    ),
    "Violation": (
        Violation,
        ("code", "message", "evidence"),
        {"evidence": ()},
        violation,
        VIOLATION_REPR,
        VIOLATION_BYTES,
    ),
    "LedgerEntry": (
        LedgerEntry,
        ("from_regime", "to_regime", "cost", "residual"),
        {},
        lambda: LedgerEntry("base", "storm", 1.5, 0.25),
        "LedgerEntry(from_regime='base', to_regime='storm', cost=1.5, residual=0.25)",
        '{"cost":1.5,"from":"base","residual":0.25,"to":"storm"}',
    ),
    "CoreReport": (
        CoreReport,
        ("value", "passed", "identity_value", "predicate_results"),
        {},
        lambda: CoreReport(1.75, True, 0.75, (("components-live", True), ("obligations-honored", True))),
        "CoreReport(value=1.75, passed=True, identity_value=0.75, "
        "predicate_results=(('components-live', True), ('obligations-honored', True)))",
        '{"identity":0.75,"passed":true,"predicates":{"components-live":true,"obligations-honored":true},"value":1.75}',
    ),
    "IdentityBreakdown": (
        IdentityBreakdown,
        ("request_class", "outputs", "safety", "interactions", "total"),
        {},
        lambda: IdentityBreakdown(1.0, 0.5, 1.0, 0.75, 0.8),
        "IdentityBreakdown(request_class=1.0, outputs=0.5, safety=1.0, interactions=0.75, total=0.8)",
        '{"interactions":0.75,"outputs":0.5,"request_class":1.0,"safety":1.0,"total":0.8}',
    ),
    "ScoreBreakdown": (
        ScoreBreakdown,
        ("j_task", "j_safety", "j_semantic", "j_cost", "j_reuse", "weights"),
        {},
        score,
        SCORE_REPR,
        SCORE_BYTES,
    ),
    "CandidateTrace": (
        CandidateTrace,
        ("transformation", "verdict", "breakdown", "reuse", "complexity"),
        {},
        candidate_trace,
        "CandidateTrace(transformation=UpdateConstraint(name='latency', bound=8.0, rationale=''), "
        "verdict=AdmissibilityVerdict(passed=False, obligations=(('A3', ObligationResult(code='A3', certified=False, "
        f"gated=True, certificate=None, violation={VIOLATION_REPR})),), substitution=None, identity_score=0.8, "
        "identity_passed=False, certificates=(), updated_ledger=DriftLedger(bound=50.0, entries=()), transported=0, "
        f"before_digest='bbbb', after_digest='aaaa', error=''), breakdown={SCORE_REPR}, reuse=0.0, complexity=3.5)",
        f'{{"complexity":3.5,"reuse":0.0,"score":{SCORE_BYTES},'
        '"transformation":{"bound":8.0,"name":"latency","rationale":"","variant":"update_constraint"},'
        '"verdict":{"after":"aaaa","before":"bbbb","error":"","identity_passed":false,"identity_score":0.8,'
        '"obligations":{"A3":{"certificate":null,"certified":false,"code":"A3","gated":true,"passed":false,'
        f'"violation":{VIOLATION_BYTES}}}}},"passed":false,"substitution":null,"transported":0}}}}',
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_keep_their_names_order_and_defaults(name):
    record, fields, defaults, *_ = RECORDS[name]
    assert record._fields == fields
    assert record._field_defaults == defaults


@pytest.mark.parametrize("name", RECORDS)
def test_repr_and_canonical_bytes_are_pinned(name):
    _, _, _, make, text, data = RECORDS[name]
    value = make()
    assert repr(value) == text
    assert canonical_dumps(value.to_data()) == data


@pytest.mark.parametrize("name", RECORDS)
def test_a_value_equals_and_hashes_as_one_built_alike(name):
    _, fields, _, make, *_ = RECORDS[name]
    value, alike = make(), make()
    assert value is not alike
    assert value == alike and not value != alike
    assert hash(value) == hash(alike)
    # a value that differs in one field is another value
    changed = value._replace(**{fields[-1]: "other"})
    assert changed != value and type(changed) is type(value)


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_can_be_assigned(name):
    _, fields, _, make, *_ = RECORDS[name]
    value = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert value == make()


def test_a_certificate_refuses_empty_evidence():
    context = CertContext("base", "eeee")
    with pytest.raises(MalformedRecord, match="non-empty evidence"):
        Certificate("capacity", "dddd", context, (), 7)
    with pytest.raises(MalformedRecord, match="non-empty evidence"):
        Certificate(kind="capacity", subject_digest="dddd", context=context, evidence=(), issued_at=7)
    with pytest.raises(MalformedRecord, match="non-empty evidence"):
        certificate()._replace(evidence=())


def test_a_stored_certificate_without_a_transported_key_is_not_transported():
    data = certificate().to_data()
    del data["transported"]
    loaded = Certificate.from_data(data)
    assert loaded.transported is False
    assert loaded == certificate()


@pytest.mark.parametrize("transported", [False, True], ids=["plain", "transported"])
def test_a_certificate_survives_its_round_trip(transported):
    cert = certificate().as_transported() if transported else certificate()
    assert cert.transported is transported
    again = Certificate.from_data(cert.to_data())
    assert again == cert and type(again) is Certificate
    assert canonical_dumps(again.to_data()) == canonical_dumps(cert.to_data())


@pytest.mark.parametrize("record", [AdmissibilityVerdict, DecisionTrace, DriftLedger])
def test_records_copied_by_callers_stay_dataclasses(record):
    assert dataclasses.is_dataclass(record)
