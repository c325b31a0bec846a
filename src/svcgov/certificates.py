"""Context-qualified certificates and violation records.

A certificate is never context-free: it names the regime and the
environment descriptor class it was issued under.  The environment class
of a semantic state is the union of all zone descriptor concepts closed
upward under refinement, so states whose descriptors differ only by
refinement depth fall into the same class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .canon import digest_of
from .errors import MalformedRecord
from .fields import Fields, anything, boolean, integer, keyed, mapping, sorted_items, text
from .model import SemanticState
from .ontology import ConceptId, OntologySchema

#: Machine-readable obligation codes carried by violations.
OBLIGATION_CODES = ("A1", "A2", "A3", "A4", "S1", "S2", "S3", "S4", "S5", "runtime-failure")


def environment_class(z: SemanticState, schema: OntologySchema) -> frozenset[ConceptId]:
    out: set[ConceptId] = set()
    for _, descriptors in z.environment_descriptors:
        for d in descriptors:
            if schema.declares(d):
                out |= schema.ancestors(d)
            else:
                out.add(d)
    return frozenset(out)


def environment_digest(z: SemanticState, schema: OntologySchema) -> str:
    return digest_of(sorted(str(c) for c in environment_class(z, schema)))


@dataclass(frozen=True)
class CertContext:
    regime_label: str
    environment_digest: str

    def to_data(self) -> dict:
        return {"regime": self.regime_label, "environment": self.environment_digest}

    @classmethod
    def from_data(cls, data: Mapping) -> "CertContext":
        return cls(*keyed(text, "regime", "environment")(data))


@dataclass(frozen=True)
class Certificate:
    kind: str  # closure | stability | capacity | invariance | substitution | composite
    subject_digest: str
    context: CertContext
    evidence: tuple[tuple[str, object], ...]  # sorted, non-empty
    issued_at: int
    transported: bool = False

    def __post_init__(self) -> None:
        if not self.evidence:
            raise MalformedRecord("certificates require non-empty evidence")

    def evidence_map(self) -> dict[str, object]:
        return dict(self.evidence)

    def as_transported(self, new_subject: str, distance: int) -> "Certificate":
        evidence = self.evidence_map()
        evidence["transported_from"] = self.subject_digest
        evidence["transport_distance"] = distance
        return Certificate(self.kind, new_subject, self.context, tuple(sorted(evidence.items())), self.issued_at, True)

    def to_data(self) -> dict:
        return {
            "kind": self.kind,
            "subject": self.subject_digest,
            "context": self.context.to_data(),
            "evidence": {k: v for k, v in self.evidence},
            "issued_at": self.issued_at,
            "transported": self.transported,
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "Certificate":
        r = Fields(data)
        kind, subject, context = r.get("kind", text), r.get("subject", text), r.get("context", CertContext.from_data)
        evidence, issued_at = r.get("evidence", mapping(anything, sorted_items), ()), r.get("issued_at", integer, 0)
        return r.build(cls, kind, subject, context, evidence, issued_at, r.get("transported", boolean, cls.transported))


@dataclass(frozen=True)
class CertRefusal:
    reason: str


@dataclass(frozen=True)
class Violation:
    code: str  # one of OBLIGATION_CODES
    message: str
    evidence: tuple[tuple[str, object], ...] = ()

    def evidence_map(self) -> dict[str, object]:
        return dict(self.evidence)

    def to_data(self) -> dict:
        return {"code": self.code, "message": self.message, "evidence": {k: v for k, v in self.evidence}}
