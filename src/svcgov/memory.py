"""The structured memory operator: outcome records, reuse scoring,
failure-motif quarantine, and controlled certificate transport.

The store is append-only.  Records follow the tuple
(regime, hypothesis digest, certificate, outcome, failure signature,
reuse tag); failure signatures quarantine a graph motif within the
environment class it failed in, never globally.  Certificates of kind
closure or capacity may be transported to nearby graphs in a matching
context; stability and invariance certificates are state-dependent and
never transport.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .canon import canonical_dumps, sha256_hex
from .certificates import OBLIGATION_CODES, Certificate, CertRefusal
from .errors import CorruptStore, MalformedRecord, NotReachable
from .fields import Fields, array, concept, maybe, read, row, text
from .model import Hypothesis
from .ontology import ConceptId
from .transform import edit_distance

OUTCOMES = ("success", "degraded", "failed")

#: Certificate kinds eligible for transport; the rest are state-dependent.
TRANSPORTABLE_KINDS = ("closure", "capacity")


def _sorted_tuple(items: Iterable) -> tuple:
    return tuple(sorted(items))


@dataclass(frozen=True)
class Motif:
    """The minimal implicated subgraph of a failure: slots labeled with the
    assigned component concepts, plus the edges among them.  A motif
    matches a hypothesis when some injective slot-to-role map preserves
    concepts exactly and maps motif edges onto hypothesis edges."""

    nodes: tuple[tuple[str, ConceptId], ...]  # (slot, component concept), sorted by slot
    edges: tuple[tuple[str, str], ...]  # (from slot, to slot), sorted

    def __post_init__(self) -> None:
        if not self.nodes:
            raise MalformedRecord("failure motif must name at least one slot")

    def to_data(self) -> dict:
        return {
            "nodes": [[s, str(c)] for s, c in self.nodes],
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "Motif":
        r = Fields(data)
        nodes = r.get("nodes", array(row(text, concept), _sorted_tuple))
        return r.build(cls, nodes, r.get("edges", array(row(text, text), _sorted_tuple), ()))

    @classmethod
    def build(cls, nodes: Mapping[str, ConceptId], edges: Iterable[tuple[str, str]] = ()) -> "Motif":
        return cls(nodes=tuple(sorted(nodes.items())), edges=tuple(sorted(edges)))

    def matches(self, h: Hypothesis) -> bool:
        """Exact-label subgraph check, brute force; motifs stay small."""
        slots = [s for s, _ in self.nodes]
        concept_of = dict(self.nodes)
        candidates: dict[str, list[str]] = {}
        for slot in slots:
            fits = [
                rid for rid, comp in h.assignment if comp.concept == concept_of[slot]
            ]
            if not fits:
                return False
            candidates[slot] = fits
        h_edges = {(e.from_role, e.to_role) for e in h.edges}
        for picks in itertools.product(*(candidates[s] for s in slots)):
            if len(set(picks)) != len(picks):
                continue
            mapping = dict(zip(slots, picks))
            if all((mapping[a], mapping[b]) in h_edges for a, b in self.edges):
                return True
        return False


def motif_from_hypothesis(h: Hypothesis, role_ids: Iterable[str]) -> Motif:
    """The induced motif of the given roles in a hypothesis."""
    wanted = sorted(set(role_ids))
    assignment = h.assignment_map()
    nodes = {}
    for rid in wanted:
        comp = assignment.get(rid)
        if comp is None:
            raise MalformedRecord(f"role {rid} is unassigned; cannot build a failure motif")
        nodes[rid] = comp.concept
    edges = [
        (e.from_role, e.to_role)
        for e in h.edges
        if e.from_role in nodes and e.to_role in nodes
    ]
    return Motif.build(nodes, edges)


@dataclass(frozen=True)
class FailureSignature:
    regime_label: str
    environment_digest: str
    motif: Motif
    obligation_code: str

    def __post_init__(self) -> None:
        if self.obligation_code not in OBLIGATION_CODES:
            raise MalformedRecord(f"unknown obligation code {self.obligation_code!r}")

    def to_data(self) -> dict:
        return {
            "regime": self.regime_label,
            "environment": self.environment_digest,
            "motif": self.motif.to_data(),
            "code": self.obligation_code,
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "FailureSignature":
        r = Fields(data)
        regime, environment = r.get("regime", text), r.get("environment", text)
        return r.build(cls, regime, environment, r.get("motif", Motif.from_data), r.get("code", text))


@dataclass(frozen=True)
class MemoryRecord:
    regime_label: str
    hypothesis_digest: str
    certificate: Certificate | None
    outcome: str  # success | degraded | failed
    failure_signature: FailureSignature | None
    reuse_tag: str = ""

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise MalformedRecord(f"unknown outcome {self.outcome!r}")
        if self.outcome == "failed" and self.failure_signature is None:
            raise MalformedRecord("failed records must carry a failure signature")
        if self.outcome != "failed" and self.failure_signature is not None:
            raise MalformedRecord("only failed records carry a failure signature")

    def to_data(self) -> dict:
        return {
            "regime": self.regime_label,
            "hypothesis": self.hypothesis_digest,
            "certificate": self.certificate.to_data() if self.certificate else None,
            "outcome": self.outcome,
            "failure_signature": self.failure_signature.to_data() if self.failure_signature else None,
            "reuse_tag": self.reuse_tag,
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "MemoryRecord":
        r = Fields(data)
        regime, hypothesis, outcome = r.get("regime", text), r.get("hypothesis", text), r.get("outcome", text)
        certificate = r.get("certificate", maybe(Certificate.from_data), None)
        signature = r.get("failure_signature", maybe(FailureSignature.from_data), None)
        return r.build(cls, regime, hypothesis, certificate, outcome, signature, r.get("reuse_tag", text, ""))


@dataclass(frozen=True)
class MemoryStore:
    """Append-only record log plus side tables for subject graphs and
    loose certificates; indexes are derived and always consistent: built
    from the tuples on first read, or extended by ``record``."""

    records: tuple[MemoryRecord, ...] = ()
    graphs: tuple[tuple[str, Hypothesis], ...] = ()  # digest -> hypothesis, sorted
    certificates: tuple[Certificate, ...] = ()
    _index: dict[tuple, tuple] | None = field(default=None, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.records)

    def graph(self, digest: str) -> Hypothesis | None:
        """The subject graph held under ``digest``, found by bisection."""
        i = bisect_left(self.graphs, (digest,))
        return self.graphs[i][1] if i < len(self.graphs) and self.graphs[i][0] == digest else None

    def index(self) -> dict[tuple, tuple]:
        if self._index is None:
            object.__setattr__(self, "_index", _extended({}, self.records, 0, self.certificates))
        return self._index

    def has_certificate(self, cert: Certificate) -> bool:
        key = (cert.kind, cert.context.regime_label, cert.context.environment_digest, cert.subject_digest)
        return any(cert in self.index().get((pool, *key), ()) for pool in ("loose", "record"))


def _extended(index: dict, records: Sequence[MemoryRecord], position: int, loose: Sequence[Certificate]) -> dict:
    """A copy of ``index`` that also holds ``records`` (logged from
    ``position`` on) and ``loose`` certificates, in log order: signatures by
    environment class and motif, successes by digest and regime, certificates
    by pool, kind, regime, environment class (and subject)."""
    grown = dict(index)

    def add(key: tuple, value: object) -> None:
        grown[key] = grown.get(key, ()) + (value,)

    for pool, cert in [("loose", c) for c in loose] + [("record", r.certificate) for r in records if r.certificate]:
        key = (pool, cert.kind, cert.context.regime_label, cert.context.environment_digest)
        add(key + (cert.subject_digest,), cert)
        if cert.kind in TRANSPORTABLE_KINDS:
            add(key, cert)
    for position, rec in enumerate(records, position):
        cert, sig = rec.certificate, rec.failure_signature
        if rec.outcome == "success":  # each entry the environment class of its certificate, or None
            add(("success", rec.hypothesis_digest, rec.regime_label), cert and cert.context.environment_digest)
        if sig is not None:
            if ("failure", sig.environment_digest, sig.motif) not in grown:
                add(("motifs", sig.environment_digest), sig.motif)
            add(("failure", sig.environment_digest, sig.motif), (position, sig))
    return grown


EMPTY_STORE = MemoryStore()


def record(
    store: MemoryStore,
    rec: MemoryRecord,
    graph: Hypothesis | None = None,
    certificates: Sequence[Certificate] = (),
) -> MemoryStore:
    """Append one record (plus optional subject graph and loose
    certificates) and return the grown store; prior records are untouched."""
    if not isinstance(rec, MemoryRecord):
        raise MalformedRecord(f"expected a MemoryRecord, got {type(rec).__name__}")
    graphs = store.graphs
    if graph is not None:
        if graph.digest() != rec.hypothesis_digest:
            raise MalformedRecord("graph digest does not match the record's hypothesis digest")
        # ``graphs`` is sorted by digest: a digest already held keeps its
        # entry and the tuple itself; a new one is inserted in place
        i = bisect_left(graphs, (rec.hypothesis_digest,))
        if i == len(graphs) or graphs[i][0] != rec.hypothesis_digest:
            graphs = graphs[:i] + ((rec.hypothesis_digest, graph),) + graphs[i:]
    certificates = tuple(certificates)
    grown = MemoryStore(store.records + (rec,), graphs, store.certificates + certificates)
    object.__setattr__(grown, "_index", _extended(store.index(), (rec,), len(store.records), certificates))
    return grown


def reuse_score(
    store: MemoryStore,
    h: Hypothesis,
    e_label: str,
    environment: str,
    bonus: float = 1.0,
    penalty: float = 2.0,
    failures: Sequence[FailureSignature] | None = None,
) -> float:
    """Positive reuse of matching prior successes, negative reuse of
    failure motifs present in ``h`` within the current environment class
    (``environment`` is its digest).  An empty store scores 0.
    ``failures`` is ``match_failure(store, h, environment)`` when the
    caller has already built it."""
    if not store.records:
        return 0.0
    score = 0.0
    for certified_in in store.index().get(("success", h.digest(), e_label), ()):
        if certified_in is None or certified_in == environment:
            score += bonus
    for _ in match_failure(store, h, environment) if failures is None else failures:
        score -= penalty
    return score


def match_failure(store: MemoryStore, h: Hypothesis, environment: str) -> list[FailureSignature]:
    """All stored signatures whose motif occurs in ``h`` and whose
    environment class digest is ``environment``; log order, each distinct
    motif checked once."""
    index = store.index()
    motifs = [motif for motif in index.get(("motifs", environment), ()) if motif.matches(h)]
    return [sig for _, sig in sorted([hit for motif in motifs for hit in index[("failure", environment, motif)]])]


def _transport(
    cert: Certificate, h2: Hypothesis, environment: str, max_distance: int, regime_label: str, distance: int | CertRefusal
) -> Certificate | CertRefusal:
    """``cert`` moved onto ``h2`` in the current regime and environment class
    (``environment`` is its digest), or the first transport rule that refuses
    it; ``distance`` is ``_distance`` from its subject to ``h2``."""
    if cert.kind not in TRANSPORTABLE_KINDS:
        return CertRefusal(f"non-transportable kind {cert.kind!r}")
    if cert.context.regime_label != regime_label:
        return CertRefusal(
            f"regime mismatch: certificate is for {cert.context.regime_label!r}, current is {regime_label!r}"
        )
    if cert.context.environment_digest != environment:
        return CertRefusal("environment class mismatch")
    if isinstance(distance, CertRefusal):
        return distance
    if distance > max_distance:
        return CertRefusal(f"distance {distance} exceeds maximum {max_distance}")
    return cert.as_transported(h2.digest(), distance)


def _distance(store: MemoryStore, h2: Hypothesis, subject_digest: str) -> int | CertRefusal:
    """Edit distance from the stored graph ``subject_digest`` to ``h2``, or
    why it cannot be measured; the graph table is not read for ``h2`` itself."""
    if subject_digest == h2.digest():
        return 0
    subject = store.graph(subject_digest)
    if subject is None:
        return CertRefusal("subject graph unknown; cannot measure distance")
    try:
        return edit_distance(subject, h2)
    except NotReachable:
        return CertRefusal("target graph unreachable from subject within the grammar")


def transport_certificate(
    store: MemoryStore, cert: Certificate, h2: Hypothesis, environment: str, max_distance: int, regime_label: str
) -> Certificate | CertRefusal:
    """Copy a stored closure/capacity certificate onto a nearby graph in a
    matching context.  Stability and invariance certificates never
    transport."""
    if not store.has_certificate(cert):
        return CertRefusal("certificate is not present in the store")
    distance = _distance(store, h2, cert.subject_digest)
    return _transport(cert, h2, environment, max_distance, regime_label, distance)


def find_transportable(
    store: MemoryStore, kind: str, h2: Hypothesis, environment: str, max_distance: int, regime_label: str
) -> Certificate | None:
    """First stored certificate of ``kind`` that transports onto ``h2``:
    loose certificates first, then record certificates, in log order.

    Each other subject is measured at most once per lookup.  At
    ``max_distance`` 0 only a certificate about ``h2`` itself can transport
    (the edit distance is 0 only between equal graphs), so no other subject
    is measured; a certificate of another kind, regime or environment class
    never transports, so none is read."""
    if kind not in TRANSPORTABLE_KINDS:
        return None
    key = (kind, regime_label, environment) + ((h2.digest(),) if max_distance == 0 else ())
    distances: dict[str, int | CertRefusal] = {}
    for cert in store.index().get(("loose", *key), ()) + store.index().get(("record", *key), ()):
        subject = cert.subject_digest
        if subject not in distances:
            distances[subject] = _distance(store, h2, subject)
        moved = _transport(cert, h2, environment, max_distance, regime_label, distances[subject])
        if isinstance(moved, Certificate):
            return moved
    return None


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_HEADER = "svcgov-memory v1"


def persist(store: MemoryStore, path: str | Path) -> None:
    """Write the store as canonical text with a trailing checksum line."""
    lines = [_HEADER]
    graph_map = dict(store.graphs)
    emitted: set[str] = set()
    for rec in store.records:
        entry: dict = {"record": rec.to_data()}
        graph = graph_map.get(rec.hypothesis_digest)
        if graph is not None and rec.hypothesis_digest not in emitted:
            entry["graph"] = graph.to_data()
            emitted.add(rec.hypothesis_digest)
        lines.append(canonical_dumps(entry))
    for digest in sorted(set(graph_map) - emitted):
        lines.append(canonical_dumps({"graph_only": graph_map[digest].to_data()}))
    for cert in store.certificates:
        lines.append(canonical_dumps({"certificate": cert.to_data()}))
    body = "\n".join(lines) + "\n"
    text = body + f"checksum sha256:{sha256_hex(body)}\n"
    Path(path).write_text(text, encoding="utf-8")


def load(path: str | Path) -> MemoryStore:
    """Read a persisted store; CorruptStore on a bad checksum, truncation or malformed content."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptStore(f"cannot read store: {exc}") from exc
    if len(lines) < 2 or not lines[-1].startswith("checksum sha256:"):
        raise CorruptStore("missing checksum line")
    if sha256_hex("\n".join(lines[:-1]) + "\n") != lines[-1].removeprefix("checksum sha256:").strip():
        raise CorruptStore("checksum mismatch")
    if lines[0] != _HEADER:
        raise CorruptStore(f"unknown store header {lines[0]!r}")
    records, graphs, certs = [], {}, []
    for number, line in enumerate(lines[1:-1], start=2):
        try:
            record, graph, cert = read(CorruptStore, f"store line {number}", _store_entry, json.loads(line))
        except json.JSONDecodeError as exc:
            raise CorruptStore(f"malformed store line {number}: {exc}") from exc
        records += [record] if record else []
        certs += [cert] if cert else []
        if graph is not None:
            graphs[record.hypothesis_digest if record else graph.digest()] = graph
    return MemoryStore(tuple(records), tuple(sorted(graphs.items())), tuple(certs))


def _store_entry(data: object) -> tuple:
    """``(record, graph, certificate)`` of one store line, the parts it lacks
    None: a record, with its graph on the graph's first mention; a graph
    alone; or a loose certificate."""
    r = Fields(data)
    if "graph_only" in data:
        return r.build(tuple, (None, r.get("graph_only", Hypothesis.from_data), None))
    if "certificate" in data:
        return r.build(tuple, (None, None, r.get("certificate", Certificate.from_data)))
    record = r.get("record", MemoryRecord.from_data)
    return r.build(tuple, (record, r.get("graph", Hypothesis.from_data, None), None))
