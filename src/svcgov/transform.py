"""The governed transformation grammar: variants, application, composition,
candidate generation, and structural diffing.

Transformations are atomic edits of a hypothesis.  Multi-edit updates are
sequences of atomic variants, never a new variant kind, so closure can be
certified per step.  Candidate generation is exhaustive within the grammar
and canonically ordered (variant order, then site order, then component
order) for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from .canon import canonical_dumps, canonical_string
from .errors import ConfigError, IncompatibleInterface, MalformedTransformation, NotReachable, UnknownSite
from .fields import Fields, Malformed, array, boolean, integer, mapping, number, one_of, text
from .model import (
    Component, Edge, Hypothesis, InterfaceContract, SemanticState, SignalCondition, declared_condition, interface_compatible,
    refuse_faults, some_clause_holds,
)
from .ontology import OntologySchema


class _Transformation:
    """Base of the transformation variants: keeps ``transformation_key``
    once computed.  The instance is immutable, so the key never goes stale;
    it is not a dataclass field, so it takes no part in equality, hashing
    or repr."""

    _key: str | None = None


@dataclass(frozen=True)
class Substitute(_Transformation):
    role_id: str
    old_component_id: str
    new_component: Component
    rationale: str = ""


#: An added part's boundary edge, joining an existing role to a role of the
#: part (either direction).
Attachment = Edge


def joins(edge: Edge, existing: set[str], part_roles: set[str]) -> bool:
    """Whether ``edge`` has an end among ``existing`` roles and one among ``part_roles``."""
    ends = {edge.from_role, edge.to_role}
    return bool(ends & existing) and bool(ends & part_roles)


@dataclass(frozen=True)
class AddSubservice(_Transformation):
    part: Hypothesis
    attach: tuple[Edge, ...]
    rationale: str = ""


@dataclass(frozen=True)
class RemoveSubservice(_Transformation):
    role_ids: frozenset[str]
    rationale: str = ""


@dataclass(frozen=True)
class Rebind(_Transformation):
    role_id: str
    new_component: Component
    rationale: str = ""


@dataclass(frozen=True)
class UpdateConstraint(_Transformation):
    """Upsert of a named constraint bound.  Constraint removal is not
    expressible in the grammar."""

    name: str
    bound: float
    rationale: str = ""


Transformation = Union[Substitute, AddSubservice, RemoveSubservice, Rebind, UpdateConstraint]

#: Each variant by its wire name, in the canonical order that candidate
#: generation and diff output follow: its class, and the wire keys and kinds
#: of its fields in constructor order before the rationale.
_VARIANTS = {
    "substitute": (Substitute, (("role", text), ("old", text), ("new", Component.from_data))),
    "add_subservice": (AddSubservice, (("part", Hypothesis.from_data), ("attach", array(Edge.from_data), ()))),
    "remove_subservice": (RemoveSubservice, (("roles", array(text, frozenset)),)),
    "rebind": (Rebind, (("role", text), ("new", Component.from_data))),
    "update_constraint": (UpdateConstraint, (("name", text), ("bound", number))),
}
VARIANT_ORDER = tuple(_VARIANTS)
_VARIANT_NAMES = {cls: name for name, (cls, _) in _VARIANTS.items()}


def variant_name(tau: Transformation) -> str:
    return _VARIANT_NAMES[type(tau)]


def transformation_to_data(tau: Transformation) -> dict:
    data: dict = {"variant": variant_name(tau), "rationale": tau.rationale}
    if isinstance(tau, Substitute):
        data.update(role=tau.role_id, old=tau.old_component_id, new=tau.new_component.to_data())
    elif isinstance(tau, AddSubservice):
        data.update(part=tau.part.to_data(), attach=[a.to_data() for a in tau.attach])
    elif isinstance(tau, RemoveSubservice):
        data.update(roles=sorted(tau.role_ids))
    elif isinstance(tau, Rebind):
        data.update(role=tau.role_id, new=tau.new_component.to_data())
    else:
        data.update(name=tau.name, bound=tau.bound)
    return data


def transformation_from_data(data: Mapping) -> Transformation:
    r = Fields(data)
    variant, rationale = r.get("variant", text), r.get("rationale", text, "")
    if variant not in _VARIANTS:
        if variant is not None:
            r.refuse(("variant",), f"unknown transformation variant {variant!r}")
        raise Malformed(r.problems)
    cls, fields = _VARIANTS[variant]
    return r.build(cls, *(r.get(*field) for field in fields), rationale)


def prototype(cls: type, refusal: str):
    """A loader of transformations of variant ``cls`` only."""

    def load(data: Mapping) -> Transformation:
        tau = transformation_from_data(data)
        if not isinstance(tau, cls):
            raise MalformedTransformation(refusal)
        return tau

    return load


_ADDABLE = prototype(AddSubservice, "grammar addable entries must be add_subservice")
_CONSTRAINT_UPDATE = prototype(UpdateConstraint, "grammar constraint_updates entries must be update_constraint")


def transformation_key(tau: Transformation) -> str:
    """Stable content key, rationale excluded: ``canonical_dumps`` of
    ``transformation_to_data(tau)`` without the rationale, composed (keys
    in sorted order) from the cached canonical texts of the component or
    the added part, so a fresh candidate does not serialize the component
    it binds.  Every variant keeps its key once computed, so a candidate's
    key is composed once however often it is read."""
    if tau._key is None:
        if isinstance(tau, (Substitute, Rebind)):
            new, role = tau.new_component.canonical_text(), canonical_string(tau.role_id)
            if isinstance(tau, Rebind):
                key = f'{{"new":{new},"role":{role},"variant":"rebind"}}'
            else:
                old = canonical_string(tau.old_component_id)
                key = f'{{"new":{new},"old":{old},"role":{role},"variant":"substitute"}}'
        elif isinstance(tau, AddSubservice):
            attach = canonical_dumps([a.to_data() for a in tau.attach])
            key = f'{{"attach":{attach},"part":{tau.part.canonical_text()},"variant":"add_subservice"}}'
        elif isinstance(tau, RemoveSubservice):
            key = f'{{"roles":{canonical_dumps(sorted(tau.role_ids))},"variant":"remove_subservice"}}'
        else:
            bound, name = canonical_dumps(tau.bound), canonical_string(tau.name)
            key = f'{{"bound":{bound},"name":{name},"variant":"update_constraint"}}'
        object.__setattr__(tau, "_key", key)
    return tau._key


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------


#: Where a variant may act: at any site, or only at unhealthy ones.
SITES = ("any", "unhealthy")


@dataclass(frozen=True)
class VariantRule:
    """Per-variant switch: whether the variant is enabled, where it may act,
    and when generation proposes it (DNF of signal conditions; empty means
    always)."""

    enabled: bool = False
    sites: str = "any"  # one of SITES
    triggers: tuple[tuple[SignalCondition, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.sites not in SITES:
            raise ConfigError(f"variant sites must be one of {', '.join(map(repr, SITES))}, got {self.sites!r}")
        refuse_faults(self.triggers)

    def active(self, signals: Mapping[str, float]) -> bool:
        return self.enabled and (not self.triggers or some_clause_holds(self.triggers, signals))

    def to_data(self) -> dict:
        return {
            "enabled": self.enabled,
            "sites": self.sites,
            "triggers": [[c.to_data() for c in clause] for clause in self.triggers],
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "VariantRule":
        r = Fields(data)
        enabled, sites = r.get("enabled", boolean, cls.enabled), r.get("sites", one_of(*SITES), cls.sites)
        return r.build(cls, enabled, sites, r.get("triggers", array(array(declared_condition)), ()))


@dataclass(frozen=True)
class TransformationGrammar:
    variants: tuple[tuple[str, VariantRule], ...]  # keyed by variant name, sorted
    addable: tuple[AddSubservice, ...] = ()
    constraint_updates: tuple[UpdateConstraint, ...] = ()
    max_candidates: int = 16
    #: keys of the addable and constraint-update prototypes
    _prototype_keys: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, _ in self.variants:
            if name not in VARIANT_ORDER:
                raise MalformedTransformation(f"unknown grammar variant {name!r}")
        if self.max_candidates < 1:
            raise MalformedTransformation("grammar max_candidates must be >= 1")
        keys = frozenset(transformation_key(p) for p in (*self.addable, *self.constraint_updates))
        object.__setattr__(self, "_prototype_keys", keys)

    @classmethod
    def build(
        cls,
        variants: Mapping[str, VariantRule],
        addable: Sequence[AddSubservice] = (),
        constraint_updates: Sequence[UpdateConstraint] = (),
        max_candidates: int = 16,
    ) -> "TransformationGrammar":
        return cls(
            variants=tuple(sorted(variants.items())),
            addable=tuple(addable),
            constraint_updates=tuple(constraint_updates),
            max_candidates=max_candidates,
        )

    def rule(self, name: str) -> VariantRule:
        for key, rule in self.variants:
            if key == name:
                return rule
        return VariantRule(enabled=False)

    def allows(self, tau: Transformation) -> bool:
        """Structural grammar membership: the variant is enabled, and
        prototype-backed variants match a declared prototype (content
        compared with rationale tags ignored)."""
        rule = self.rule(variant_name(tau))
        if not rule.enabled:
            return False
        if isinstance(tau, (AddSubservice, UpdateConstraint)):
            return transformation_key(tau) in self._prototype_keys
        return True

    def to_data(self) -> dict:
        return {
            "variants": {name: rule.to_data() for name, rule in self.variants},
            "addable": [transformation_to_data(p) for p in self.addable],
            "constraint_updates": [transformation_to_data(p) for p in self.constraint_updates],
            "max_candidates": self.max_candidates,
        }

    @classmethod
    def from_data(cls, data: Mapping) -> "TransformationGrammar":
        r = Fields(data)
        variants, addable = r.get("variants", mapping(VariantRule.from_data), {}), r.get("addable", array(_ADDABLE), ())
        updates = r.get("constraint_updates", array(_CONSTRAINT_UPDATE), ())
        return r.build(cls.build, variants, addable, updates, r.get("max_candidates", integer, cls.max_candidates))


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def apply(tau: Transformation, h: Hypothesis) -> Hypothesis:
    """Apply one transformation; the result differs from ``h`` exactly by
    ``tau`` and may be type-unsound (closure certification is separate).
    A rebinding or a constraint update keeps the tuples of ``h`` that it
    does not change, which ``Hypothesis.build`` has already sorted."""
    if isinstance(tau, (Substitute, Rebind)):
        # a substitution is a rebinding of the role that holds its old component
        if h.role(tau.role_id) is None:
            raise UnknownSite(f"role {tau.role_id} not in hypothesis")
        current = h.binding(tau.role_id)
        if isinstance(tau, Substitute) and (current is None or current.component_id != tau.old_component_id):
            raise UnknownSite(f"component {tau.old_component_id} is not assigned at role {tau.role_id}")
        bindings = _upserted(h.assignment, (tau.role_id, tau.new_component))
        return Hypothesis(h.roles, h.edges, bindings, h.policy, h.constraints)

    if isinstance(tau, AddSubservice):
        return _apply_add(tau, h)

    if isinstance(tau, RemoveSubservice):
        role_ids = set(h.role_ids())
        missing = tau.role_ids - role_ids
        if missing:
            raise UnknownSite(f"roles not in hypothesis: {', '.join(sorted(missing))}")
        keep = role_ids - tau.role_ids
        roles = [r for r in h.roles if r.role_id in keep]
        edges = [e for e in h.edges if e.from_role in keep and e.to_role in keep]
        assignment = {rid: c for rid, c in h.assignment if rid in keep}
        policy = [p for p in h.policy if p.actor_role in keep]
        return Hypothesis.build(roles, edges, assignment, policy, h.constraint_map())

    if isinstance(tau, UpdateConstraint):
        return Hypothesis(h.roles, h.edges, h.assignment, h.policy, _upserted(h.constraints, (tau.name, tau.bound)))

    raise MalformedTransformation(f"unsupported transformation {tau!r}")


def _upserted(pairs: tuple, pair: tuple) -> tuple:
    """``pairs``, sorted by their unique first items, with ``pair`` in place
    of the pair of the same name, or sorted in; the other pairs are kept."""
    kept = [p for p in pairs if p[0] != pair[0]]
    kept.append(pair)
    kept.sort()
    return tuple(kept)


def compose(
    parts: Sequence[Hypothesis],
    contracts: Sequence[InterfaceContract],
    schema: OntologySchema,
) -> Hypothesis:
    """Compose parts in order: from the first part, each next part is added
    by one ``AddSubservice`` whose attachments join every sink of the part
    before it to every source of the part, under the contract of their
    boundary.  Constraints merge as ``AddSubservice`` merges them, the
    tightest bound winning per name."""
    if not parts:
        raise IncompatibleInterface("compose requires at least one part")
    if len(contracts) != len(parts) - 1:
        raise IncompatibleInterface(
            f"expected {len(parts) - 1} contracts for {len(parts)} parts, got {len(contracts)}"
        )
    seen_roles: set[str] = set()
    for i, part in enumerate(parts):
        if not part.roles:
            raise IncompatibleInterface(f"part {i} has no roles")
        dup = seen_roles & set(part.role_ids())
        if dup:
            raise IncompatibleInterface(f"duplicate role ids across parts: {', '.join(sorted(dup))}")
        seen_roles |= set(part.role_ids())
    for i, contract in enumerate(contracts):
        if not interface_compatible(parts[i], parts[i + 1], contract, schema):
            raise IncompatibleInterface(f"boundary {i} ({i}->{i + 1}) violates its contract")

    h = parts[0]
    for left, right, contract in zip(parts, parts[1:], contracts):
        attach = tuple(Edge(s, t, contract) for s in left.sinks() for t in right.sources())
        h = apply(AddSubservice(right, attach), h)
    return h


def _apply_add(tau: AddSubservice, h: Hypothesis) -> Hypothesis:
    part_roles = set(tau.part.role_ids())
    if not part_roles:
        raise MalformedTransformation("added part has no roles")
    existing = set(h.role_ids())
    overlap = part_roles & existing

    if overlap == part_roles:
        # idempotent attach: a part already present identically is a no-op
        if _part_present(tau, h):
            return h
        raise MalformedTransformation(
            f"part roles already exist with different content: {', '.join(sorted(overlap))}"
        )
    if overlap:
        raise MalformedTransformation(f"part roles collide with hypothesis: {', '.join(sorted(overlap))}")

    for a in tau.attach:
        if not joins(a, existing, part_roles):
            raise UnknownSite(f"attachment {a.from_role}->{a.to_role} must join an existing role and a part role")

    roles = list(h.roles) + list(tau.part.roles)
    edges = list(h.edges) + list(tau.part.edges)
    edges.extend(tau.attach)
    assignment = h.assignment_map()
    assignment.update(tau.part.assignment_map())
    policy = list(h.policy) + list(tau.part.policy)
    constraints: dict[str, float] = {}  # the tightest bound wins, so the merge never weakens a constraint
    for name, bound in h.constraints + tau.part.constraints:
        constraints[name] = min(bound, constraints.get(name, bound))
    return Hypothesis.build(roles, edges, assignment, policy, constraints)


def _part_present(tau: AddSubservice, h: Hypothesis) -> bool:
    part = tau.part
    roles = {r.role_id: r for r in h.roles}
    if any(roles.get(r.role_id) != r for r in part.roles):
        return False
    edges = set(h.edges)
    if any(e not in edges for e in (*part.edges, *tau.attach)):
        return False
    assignment = h.assignment_map()
    if any(assignment.get(rid) != comp for rid, comp in part.assignment):
        return False
    policy = set(h.policy)
    if any(p not in policy for p in part.policy):
        return False
    constraints = h.constraint_map()
    return all(name in constraints and constraints[name] <= bound for name, bound in part.constraints)


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def generate_candidates(
    h: Hypothesis,
    z: SemanticState,
    grammar: TransformationGrammar,
    registry: Sequence[Component],
) -> list[Transformation]:
    """Enumerate grammar candidates in canonical order, capped at
    ``grammar.max_candidates``.  Every candidate applies without
    UnknownSite.  Deterministic for equal inputs."""
    signals = z.signals()
    pool = sorted(registry, key=lambda c: c.component_id)
    assignment = h.assignment_map()  # every site below is an assigned role
    out: list[Transformation] = []

    def substitution_sites(rule: VariantRule) -> list[str]:
        healthy_ids = {c.component_id for c in pool}
        return sorted(
            rid for rid, comp in h.assignment if rule.sites != "unhealthy" or comp.component_id not in healthy_ids
        )

    def replacements(role_id: str) -> list[Component]:
        current = assignment[role_id].component_id
        return [comp for comp in pool if comp.component_id != current]

    rule = grammar.rule("substitute")
    if rule.active(signals):
        for rid in substitution_sites(rule):
            for comp in replacements(rid):
                out.append(Substitute(rid, assignment[rid].component_id, comp, rationale="substitute"))

    rule = grammar.rule("add_subservice")
    if rule.active(signals):
        existing = set(h.role_ids())
        for proto in grammar.addable:
            part_roles = set(proto.part.role_ids())
            # a part already attached (or colliding) is skipped
            if not part_roles & existing and all(joins(a, existing, part_roles) for a in proto.attach):
                out.append(proto)

    rule = grammar.rule("remove_subservice")
    if rule.active(signals):
        for rid in sorted(h.sinks()):
            if len(h.roles) > 1:
                out.append(RemoveSubservice(frozenset([rid]), rationale="remove-sink"))

    rule = grammar.rule("rebind")
    if rule.active(signals):
        for rid in substitution_sites(rule):
            for comp in replacements(rid):
                out.append(Rebind(rid, comp, rationale="rebind"))

    rule = grammar.rule("update_constraint")
    if rule.active(signals):
        constraints = h.constraint_map()
        for proto in grammar.constraint_updates:
            if constraints.get(proto.name) != proto.bound:
                out.append(proto)

    return out[: grammar.max_candidates]


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------


def diff(h: Hypothesis, h2: Hypothesis) -> list[Transformation]:
    """A transformation list whose in-order replay on ``h`` reproduces
    ``h2`` exactly; raises NotReachable when no such grammar sequence
    exists (edge rewires between kept roles, constraint removals, or
    policy edits outside an added part)."""
    if h == h2:
        return []
    old_roles = set(h.role_ids())
    new_roles = set(h2.role_ids())
    removed = old_roles - new_roles
    added = new_roles - old_roles
    kept = old_roles & new_roles

    steps: list[Transformation] = []
    if removed:
        steps.append(RemoveSubservice(frozenset(removed), rationale="diff"))

    if added:
        part_roles = [r for r in h2.roles if r.role_id in added]
        part_edges = [e for e in h2.edges if e.from_role in added and e.to_role in added]
        crossing = tuple(e for e in h2.edges if (e.from_role in added) != (e.to_role in added))
        part_assignment = {rid: c for rid, c in h2.assignment if rid in added}
        part_policy = [p for p in h2.policy if p.actor_role in added]
        part = Hypothesis.build(part_roles, part_edges, part_assignment, part_policy, {})
        steps.append(AddSubservice(part, crossing, rationale="diff"))

    before_assignment = h.assignment_map()
    after_assignment = h2.assignment_map()
    for rid in sorted(kept):
        before_comp = before_assignment.get(rid)
        after_comp = after_assignment.get(rid)
        if before_comp != after_comp:
            if before_comp is None or after_comp is None:
                raise NotReachable(f"assignment presence changed at kept role {rid}")
            steps.append(Substitute(rid, before_comp.component_id, after_comp, rationale="diff"))

    before_constraints = h.constraint_map()
    after_constraints = h2.constraint_map()
    for name in sorted(set(before_constraints) - set(after_constraints)):
        raise NotReachable(f"constraint {name!r} removed; removal is not in the grammar")
    for name in sorted(after_constraints):
        if before_constraints.get(name) != after_constraints[name]:
            steps.append(UpdateConstraint(name, after_constraints[name], rationale="diff"))

    replayed = h
    for tau in steps:
        try:
            replayed = apply(tau, replayed)
        except (UnknownSite, MalformedTransformation) as exc:
            raise NotReachable(f"replay failed: {exc}") from exc
    if replayed != h2:
        raise NotReachable("hypotheses differ beyond the transformation grammar")
    return steps


def edit_distance(h: Hypothesis, h2: Hypothesis) -> int:
    """Minimum atomic-edit count between two hypotheses: roles added or
    removed, bindings changed, constraints changed.  Raises NotReachable
    when no grammar path exists."""
    total = 0
    for tau in diff(h, h2):
        if isinstance(tau, RemoveSubservice):
            total += len(tau.role_ids)
        elif isinstance(tau, AddSubservice):
            total += len(tau.part.roles)
        else:
            total += 1
    return total
