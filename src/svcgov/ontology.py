"""Typed vocabulary, refinement order, and structural consistency checks.

The schema stands in for an imported ontology closure: concepts classified
under five categories, a refinement partial order within each category, a
fixed five-name relation vocabulary, and per-concept parameter
declarations.  Consistency of an assertion base against the schema is
checked structurally (declared references, category discipline), not by
description-logic inference.

Ontology documents are UTF-8 text, one statement per line, order
independent::

    # comment
    prefix hsp urn:example:hospital
    concept Service hsp:DeliveryRequest
    refines hsp:IndoorNavigation hsp:Navigation
    relation providesFunction Agent Function
    param hsp:DeliveryRequest priority number
    param hsp:DeliveryRequest weight number kg
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from .errors import ParseError, UnknownConcept, ValidationError


class Category(str, Enum):
    AGENT = "Agent"
    SERVICE = "Service"
    FUNCTION = "Function"
    ENVIRONMENT = "Environment"
    INTERACTION = "Interaction"


#: The closed relation vocabulary.  Schema authors choose each relation's
#: domain/range categories but may not invent new names or arities.
RELATION_NAMES = ("executes", "notifies", "requires", "providesFunction", "locatedIn")

PARAM_KINDS = ("number", "flag", "enum", "text")


class _ConceptPair(NamedTuple):
    namespace: str
    local_name: str


class ConceptId(_ConceptPair):
    """Namespaced concept identifier; equality and ordering are exact.

    A tuple of ``(namespace, local_name)``, so hashing, equality and
    ordering run in C and agree with the plain pair's.
    """

    __slots__ = ()

    def __new__(cls, namespace: str, local_name: str) -> "ConceptId":
        if not namespace or not local_name:
            raise ValueError("concept id needs a non-empty namespace and local name")
        return super().__new__(cls, namespace, local_name)

    def __str__(self) -> str:
        return f"{self.namespace}:{self.local_name}"

    @classmethod
    def parse(cls, text: str) -> "ConceptId":
        ns, sep, local = text.partition(":")
        if not sep or not ns or not local:
            raise ValueError(f"malformed concept id {text!r}, expected <prefix>:<LocalName>")
        return cls(ns, local)


@dataclass(frozen=True)
class ParamDecl:
    name: str
    kind: str  # one of PARAM_KINDS
    unit: str = ""


@dataclass(frozen=True)
class RelationDecl:
    name: str
    domain: Category
    range: Category


@dataclass(frozen=True)
class OntologySchema:
    """Immutable typed vocabulary; safe to share across readers.

    The reflexive-transitive refinement closure is computed once, when the
    schema is built: concepts are numbered in a topological order (parents
    first) and each concept keeps a bitmask of its ancestors' numbers.  A
    refinement query is then a lookup, whatever the size of the ontology,
    and a chain of n links costs n*n/8 bytes, not n*n set entries.  The
    concepts a provider set covers are the union of its members' masks
    (``closure_mask``), so each wanted concept costs one AND against it.

    ``memo`` keeps whole facts that depend on nothing but the schema and
    immutable values, keyed by the values or by digests that stand for
    them: the closure mask of a frozen provider set (``cached_mask``); each
    graph's soundness report (``model.type_soundness``), under
    ``("soundness", digest)``; each environment-class digest
    (``certificates.environment_digest``), under
    ``("environment", descriptors)``; each ``certify.transition``, the
    configuration a transformation reaches from a graph and the model-free
    parts of its charge, under ``("transition", digest, key)``; and each
    commitments, core report and identity breakdown of a candidate, under
    a ``"commitments"``, ``"core"`` or ``"identity"`` key of exactly what
    it reads.  An entry is complete when stored and never goes stale, so
    every scenario on the schema reads the entries of the others: a shipped
    pack's schema is loaded once per process and shared by every scenario
    built from the pack, and its memo then holds the facts of every value
    judged on it in the process.
    """

    concepts: Mapping[ConceptId, Category]
    refinements: frozenset[tuple[ConceptId, ConceptId]]  # (child, parent)
    relations: Mapping[str, RelationDecl]
    parameter_decls: Mapping[ConceptId, tuple[ParamDecl, ...]]
    #: concepts and refinement ends in topological order: bit i stands for the i-th
    _order: tuple[ConceptId, ...] = field(init=False, repr=False, compare=False)
    #: per declared concept, its own bit and its ancestor mask
    _bits: Mapping[ConceptId, int] = field(init=False, repr=False, compare=False)
    _masks: Mapping[ConceptId, int] = field(init=False, repr=False, compare=False)
    #: per (category, local name), the bits of the declared concepts so named
    _named: Mapping[tuple[Category, str], int] = field(init=False, repr=False, compare=False)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        order, masks = _refinement_closure(self.concepts, self.refinements)
        bits = {c: 1 << bit for bit, c in enumerate(order) if c in self.concepts}
        named: dict[tuple[Category, str], int] = {}
        for c, cat in self.concepts.items():
            named[cat, c.local_name] = named.get((cat, c.local_name), 0) | bits[c]
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_masks", {c: masks[c] for c in self.concepts})
        object.__setattr__(self, "_named", named)

    def category(self, concept: ConceptId) -> Category:
        try:
            return self.concepts[concept]
        except KeyError:
            raise UnknownConcept(f"undeclared concept {concept}") from None

    def declares(self, concept: ConceptId) -> bool:
        return concept in self.concepts

    def ancestors(self, concept: ConceptId) -> frozenset[ConceptId]:
        """Reflexive-transitive up-closure of the refinement order; an
        undeclared concept's is the concept alone."""
        mask = self._masks.get(concept)
        if mask is None:
            return frozenset((concept,))
        out = []
        while mask:
            low = mask & -mask
            out.append(self._order[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def closure_mask(self, provided: Iterable[ConceptId]) -> int:
        """Union of the ancestor masks of the declared concepts in
        ``provided``: every concept one of them is or refines, as bits.
        Undeclared members contribute nothing."""
        masks = self._masks
        mask = 0
        for p in provided:
            mask |= masks.get(p, 0)
        return mask

    def remembered(self, key: Hashable, compute: Callable, *args):
        """``compute(*args)``, kept in ``memo`` under ``key``, which stands
        for the immutable value that it reads beside the schema."""
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = compute(*args)
        return value

    def cached_mask(self, provided: frozenset[ConceptId]) -> int:
        """``closure_mask`` of a frozen provider set, kept in ``memo``."""
        return self.remembered(provided, self.closure_mask, provided)

    def mask_covers(self, mask: int, wanted: ConceptId) -> bool:
        """True iff ``wanted`` is declared and lies in ``mask``, the
        ``closure_mask`` of a provider set."""
        return (mask & self._bits.get(wanted, 0)) != 0

    def covers(self, provided: Iterable[ConceptId], wanted: ConceptId) -> bool:
        """True iff ``wanted`` is declared and some declared concept in
        ``provided`` is ``wanted`` or a refinement of it."""
        return self.mask_covers(self.closure_mask(provided), wanted)

    def named_mask(self, category: Category, local_name: str) -> int:
        """Bits of the declared ``category`` concepts whose local name is
        ``local_name``; a ``closure_mask`` meets it iff its provider set
        covers one of them."""
        return self._named.get((category, local_name), 0)

    def params_for(self, concept: ConceptId) -> dict[str, ParamDecl]:
        """Parameter declarations of a concept, inherited along refinement."""
        out: dict[str, ParamDecl] = {}
        for anc in sorted(self.ancestors(concept), reverse=True):
            for decl in self.parameter_decls.get(anc, ()):
                out[decl.name] = decl
        # own declarations win over inherited ones
        for decl in self.parameter_decls.get(concept, ()):
            out[decl.name] = decl
        return out


@dataclass(frozen=True)
class AssertionBase:
    """Instance-level facts checked against a schema.

    ``individuals`` maps ids to concepts; ``relation_facts`` and
    ``parameter_facts`` are kept in declaration order for deterministic
    reporting.
    """

    individuals: Mapping[str, ConceptId]
    relation_facts: tuple[tuple[str, str, str], ...]  # (relation, subject, object)
    parameter_facts: tuple[tuple[str, str, object], ...]  # (individual, param, value)
    #: the relation facts by relation name, in declaration order
    _by_relation: Mapping[str, tuple[tuple[str, str, str], ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_relation: dict[str, list[tuple[str, str, str]]] = {}
        for fact in self.relation_facts:
            by_relation.setdefault(fact[0], []).append(fact)
        object.__setattr__(self, "_by_relation", {name: tuple(facts) for name, facts in by_relation.items()})

    def facts_named(self, relation: str) -> tuple[tuple[str, str, str], ...]:
        return self._by_relation.get(relation, ())


@dataclass(frozen=True)
class ConformanceReport:
    consistent: bool
    violations: tuple[tuple[str, str], ...]  # (code, message)

    def messages(self) -> list[str]:
        return [f"{code}: {msg}" for code, msg in self.violations]


# ---------------------------------------------------------------------------
# Document loading
# ---------------------------------------------------------------------------


def load_schema(document: str) -> OntologySchema:
    """Parse an ontology document and validate all schema invariants.

    Raises ParseError on malformed syntax and ValidationError on semantic
    problems (dangling references, cross-category refinement, refinement
    cycles); either error lists every violation found.
    """
    statements: list[tuple[int, list[str]]] = []
    parse_errors: list[str] = []
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        statements.append((lineno, line.split()))
    if not statements:
        raise ParseError(["empty document: no statements"])

    prefixes: dict[str, str] = {}
    for lineno, tokens in statements:
        if tokens[0] == "prefix":
            if len(tokens) != 3:
                parse_errors.append(f"line {lineno}: prefix takes <p> <namespace>")
            elif tokens[1] in prefixes and prefixes[tokens[1]] != tokens[2]:
                parse_errors.append(f"line {lineno}: prefix {tokens[1]} redeclared")
            else:
                prefixes[tokens[1]] = tokens[2]

    def parse_concept(lineno: int, text: str) -> ConceptId | None:
        try:
            cid = ConceptId.parse(text)
        except ValueError as exc:
            parse_errors.append(f"line {lineno}: {exc}")
            return None
        if cid.namespace not in prefixes:
            parse_errors.append(f"line {lineno}: undeclared prefix {cid.namespace!r}")
            return None
        return cid

    concepts: dict[ConceptId, Category] = {}
    refinements: list[tuple[int, ConceptId, ConceptId]] = []
    relations: dict[str, RelationDecl] = {}
    params: dict[ConceptId, list[ParamDecl]] = {}

    for lineno, tokens in statements:
        kind = tokens[0]
        if kind == "prefix":
            continue
        if kind == "concept":
            if len(tokens) != 3:
                parse_errors.append(f"line {lineno}: concept takes <category> <id>")
                continue
            try:
                cat = Category(tokens[1])
            except ValueError:
                parse_errors.append(f"line {lineno}: unknown category {tokens[1]!r}")
                continue
            cid = parse_concept(lineno, tokens[2])
            if cid is None:
                continue
            if cid in concepts and concepts[cid] is not cat:
                parse_errors.append(f"line {lineno}: concept {cid} redeclared with new category")
            concepts[cid] = cat
        elif kind == "refines":
            if len(tokens) != 3:
                parse_errors.append(f"line {lineno}: refines takes <child> <parent>")
                continue
            child = parse_concept(lineno, tokens[1])
            parent = parse_concept(lineno, tokens[2])
            if child is not None and parent is not None:
                refinements.append((lineno, child, parent))
        elif kind == "relation":
            if len(tokens) != 4:
                parse_errors.append(f"line {lineno}: relation takes <name> <domainCat> <rangeCat>")
                continue
            name = tokens[1]
            if name not in RELATION_NAMES:
                parse_errors.append(f"line {lineno}: unknown relation name {name!r}")
                continue
            try:
                dom, rng = Category(tokens[2]), Category(tokens[3])
            except ValueError:
                parse_errors.append(f"line {lineno}: unknown category in relation {name}")
                continue
            if name in relations and relations[name] != RelationDecl(name, dom, rng):
                parse_errors.append(f"line {lineno}: relation {name} redeclared differently")
            relations[name] = RelationDecl(name, dom, rng)
        elif kind == "param":
            if len(tokens) not in (4, 5):
                parse_errors.append(f"line {lineno}: param takes <concept> <name> <kind> [unit]")
                continue
            cid = parse_concept(lineno, tokens[1])
            if cid is None:
                continue
            if tokens[3] not in PARAM_KINDS:
                parse_errors.append(f"line {lineno}: unknown param kind {tokens[3]!r}")
                continue
            unit = tokens[4] if len(tokens) == 5 else ""
            params.setdefault(cid, []).append(ParamDecl(tokens[2], tokens[3], unit))
        else:
            parse_errors.append(f"line {lineno}: unknown statement {kind!r}")

    if parse_errors:
        raise ParseError(parse_errors)

    violations: list[str] = []
    for lineno, child, parent in refinements:
        for end in (child, parent):
            if end not in concepts:
                violations.append(f"line {lineno}: refinement references undeclared concept {end}")
        if child in concepts and parent in concepts and concepts[child] is not concepts[parent]:
            violations.append(
                f"line {lineno}: cross-category refinement {child} -> {parent} "
                f"({concepts[child].value} vs {concepts[parent].value})"
            )
    for cid in params:
        if cid not in concepts:
            violations.append(f"param declared on undeclared concept {cid}")

    try:
        schema = OntologySchema(
            concepts=dict(sorted(concepts.items())),
            refinements=frozenset((c, p) for _, c, p in refinements),
            relations=dict(sorted(relations.items())),
            parameter_decls={c: tuple(ps) for c, ps in sorted(params.items())},
        )
    except ValidationError as exc:  # a refinement cycle
        violations.extend(exc.violations)
    if violations:
        raise ValidationError(violations)
    return schema


def _refinement_closure(
    concepts: Mapping[ConceptId, Category], pairs: frozenset[tuple[ConceptId, ConceptId]]
) -> tuple[tuple[ConceptId, ...], dict[ConceptId, int]]:
    """Number every concept and refinement end in the topological order
    (parents first) of ``graphlib.TopologicalSorter.static_order`` and give
    each its ancestor bitmask: its own bit ORed with its parents' masks.

    Returns (order, {node: mask}).  Raises ValidationError naming the
    members of one refinement cycle, along its parent links: the nodes
    enter the sorter in name order, each with its parents in name order, so
    the cycle is the one graphlib meets first from the smallest name,
    whatever the order of the document's lines.
    """
    parents: dict[ConceptId, list[ConceptId]] = {c: [] for c in concepts}
    for child, parent in sorted(pairs):
        parents.setdefault(child, []).append(parent)
        parents.setdefault(parent, [])
    try:
        order = tuple(TopologicalSorter({node: parents[node] for node in sorted(parents)}).static_order())
    except CycleError as exc:
        # graphlib lists the cycle along child links, its first node again at the end
        names = ", ".join(str(c) for c in exc.args[1][:0:-1])
        raise ValidationError([f"refinement cycle through {{{names}}}"]) from None
    masks: dict[ConceptId, int] = {}
    for bit, node in enumerate(order):
        mask = 1 << bit
        for p in parents[node]:
            mask |= masks[p]
        masks[node] = mask
    return order, masks


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def is_refinement(schema: OntologySchema, a: ConceptId, b: ConceptId) -> bool:
    """True iff ``b`` is reachable from ``a`` in the reflexive-transitive
    closure of the refinement pairs (``a`` is ``b`` or a refinement of it)."""
    if not schema.declares(a):
        raise UnknownConcept(f"undeclared concept {a}")
    if not schema.declares(b):
        raise UnknownConcept(f"undeclared concept {b}")
    return schema.covers((a,), b)


def check_consistency(schema: OntologySchema, k: AssertionBase) -> ConformanceReport:
    """Structurally validate an assertion base against the schema.

    Violations are report content, not faults; each offending fact is
    listed with a stable code.  The check is per fact, so adding a fact
    can only ever add violations.
    """
    violations: list[tuple[str, str]] = []

    for ind, concept in sorted(k.individuals.items()):
        if not schema.declares(concept):
            violations.append(("unknown-concept", f"individual {ind} typed by undeclared {concept}"))

    def category_of(ind: str) -> Category | None:
        concept = k.individuals.get(ind)
        if concept is None or not schema.declares(concept):
            return None
        return schema.category(concept)

    for relation, subj, obj in k.relation_facts:
        decl = schema.relations.get(relation)
        if decl is None:
            violations.append(("unknown-relation", f"fact {relation}({subj}, {obj}) uses undeclared relation"))
            continue
        sides = (
            ("subject", subj, decl.domain, "domain-category-mismatch"),
            ("object", obj, decl.range, "range-category-mismatch"),
        )
        for role_name, ind, want, code in sides:
            if ind not in k.individuals:
                violations.append(
                    ("unknown-individual", f"fact {relation}({subj}, {obj}) references unknown {role_name} {ind}")
                )
                continue
            got = category_of(ind)
            if got is not None and got is not want:
                violations.append(
                    (code, f"fact {relation}({subj}, {obj}): {role_name} {ind} is {got.value}, requires {want.value}")
                )

    for ind, name, value in k.parameter_facts:
        concept = k.individuals.get(ind)
        if concept is None:
            violations.append(("unknown-individual", f"parameter {name} on unknown individual {ind}"))
            continue
        if not schema.declares(concept):
            continue  # already reported above
        decl = schema.params_for(concept).get(name)
        if decl is None:
            violations.append(("unknown-param", f"parameter {name} undeclared for {concept} (individual {ind})"))
            continue
        if not kind_matches(decl.kind, value):
            violations.append(
                ("param-kind-mismatch", f"parameter {name} on {ind}: value {value!r} is not a {decl.kind}")
            )

    return ConformanceReport(consistent=not violations, violations=tuple(violations))


def kind_matches(kind: str, value: object) -> bool:
    """True iff ``value`` is a plain value of the declared parameter kind."""
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "flag":
        return isinstance(value, bool)
    return isinstance(value, str)  # enum and text
