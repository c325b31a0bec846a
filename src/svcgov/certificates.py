"""Context-qualified certificates and violation records.

A certificate is never context-free: it names the regime and the
environment descriptor class it was issued under.  The environment class
of a semantic state is the union of all zone descriptor concepts closed
upward under refinement, so states whose descriptors differ only by
refinement depth fall into the same class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .canon import digest_of
from .errors import MalformedRecord
from .fields import Fields, anything, boolean, integer, keyed, mapping, sorted_items, text
from .model import SemanticState
from .ontology import ConceptId, OntologySchema

#: Machine-readable obligation codes carried by violations.
OBLIGATION_CODES = ("A1", "A2", "A3", "A4", "S1", "S2", "S3", "S4", "S5", "runtime-failure")


def environment_digest(z: SemanticState, schema: OntologySchema) -> str:
    """Digest of the environment class of ``z``, kept in ``schema.memo``
    under ``("environment", z.environment_descriptors)``, all that it reads."""
    return schema.remembered(("environment", z.environment_descriptors), _class_digest, z, schema)


def _class_digest(z: SemanticState, schema: OntologySchema) -> str:
    """Digest of the union of the zone descriptors of ``z``, each declared
    one closed upward under refinement."""
    out: set[ConceptId] = set()
    for _, descriptors in z.environment_descriptors:
        for d in descriptors:
            if schema.declares(d):
                out |= schema.ancestors(d)
            else:
                out.add(d)
    return digest_of(sorted(str(c) for c in out))


@dataclass(frozen=True)
class CertContext:
    regime_label: str
    environment_digest: str

    def to_data(self) -> dict:
        return {"regime": self.regime_label, "environment": self.environment_digest}

    @classmethod
    def from_data(cls, data: Mapping) -> "CertContext":
        return cls(*keyed(text, "regime", "environment")(data))


class _CertificateFields(NamedTuple):
    kind: str  # closure | stability | capacity | invariance | substitution | composite
    subject_digest: str
    context: CertContext
    evidence: tuple[tuple[str, object], ...]  # sorted, non-empty
    issued_at: int
    transported: bool = False


class Certificate(_CertificateFields):
    """A certificate of ``kind`` about the graph ``subject_digest``, issued
    in ``context`` at tick ``issued_at``: a tuple, so it is built, compared
    and hashed in C, that refuses empty evidence when built."""

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        subject_digest: str,
        context: CertContext,
        evidence: tuple[tuple[str, object], ...],
        issued_at: int,
        transported: bool = False,
    ) -> "Certificate":
        if not evidence:
            raise MalformedRecord("certificates require non-empty evidence")
        # the base's generated ``__new__`` would only add a call
        return tuple.__new__(cls, (kind, subject_digest, context, evidence, issued_at, transported))

    @classmethod
    def _make(cls, iterable) -> "Certificate":
        """The certificate of the fields in ``iterable``; ``_replace`` builds
        through here, so it refuses empty evidence too."""
        return cls(*iterable)

    def evidence_map(self) -> dict[str, object]:
        return dict(self.evidence)

    def as_transported(self) -> "Certificate":
        """This certificate handed over from a store to its own subject:
        marked transported, its evidence naming where it came from
        (``transported_from``, its subject) and ``transport_distance`` 0."""
        evidence = {**self.evidence_map(), "transported_from": self.subject_digest, "transport_distance": 0}
        return self._replace(evidence=tuple(sorted(evidence.items())), transported=True)

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
        transported = r.get("transported", boolean, cls._field_defaults["transported"])
        return r.build(cls, kind, subject, context, evidence, issued_at, transported)


@dataclass(frozen=True)
class CertRefusal:
    reason: str


class Violation(NamedTuple):
    code: str  # one of OBLIGATION_CODES
    message: str
    evidence: tuple[tuple[str, object], ...] = ()

    def evidence_map(self) -> dict[str, object]:
        return dict(self.evidence)

    def to_data(self) -> dict:
        return {"code": self.code, "message": self.message, "evidence": {k: v for k, v in self.evidence}}
