"""Ontology loading, refinement closure, and structural consistency."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcgov.errors import ParseError, UnknownConcept, ValidationError
from svcgov.evaluation import _covered, provider_mask
from svcgov.model import Component, Hypothesis, Role
from svcgov.ontology import (
    AssertionBase,
    Category,
    ConceptId,
    check_consistency,
    is_refinement,
    load_schema,
)

from conftest import TEST_ONTOLOGY, chain_ontology, cid


class TestLoadSchema:
    def test_empty_document_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_schema("")
        with pytest.raises(ParseError):
            load_schema("# only comments\n\n")

    def test_minimal_function_refinement(self):
        doc = """
        prefix fn urn:x
        concept Function fn:Navigation
        concept Function fn:IndoorNavigation
        refines fn:IndoorNavigation fn:Navigation
        """
        schema = load_schema(doc)
        assert len(schema.concepts) == 2
        assert schema.refinements == frozenset(
            {(cid("fn:IndoorNavigation"), cid("fn:Navigation"))}
        )

    def test_refinement_cycle_names_all_members(self):
        doc = """
        prefix f urn:x
        concept Function f:a
        concept Function f:b
        concept Function f:c
        refines f:a f:b
        refines f:b f:c
        refines f:c f:a
        """
        with pytest.raises(ValidationError) as err:
            load_schema(doc)
        message = str(err.value)
        assert "cycle" in message
        for name in ("f:a", "f:b", "f:c"):
            assert name in message

    def test_deep_refinement_chain_loads(self):
        schema = load_schema(chain_ontology(5000))
        assert is_refinement(schema, cid("d:C00000"), cid("d:C05000"))
        assert not is_refinement(schema, cid("d:C05000"), cid("d:C00000"))
        assert len(schema.ancestors(cid("d:C00000"))) == 5001

    def test_deep_refinement_loop_rejected(self):
        with pytest.raises(ValidationError) as err:
            load_schema(chain_ontology(5000, closed=True))
        assert "cycle" in str(err.value)
        assert "d:C00000" in str(err.value) and "d:C05000" in str(err.value)

    def test_cross_category_refinement_rejected(self):
        doc = """
        prefix x urn:x
        concept Function x:f
        concept Agent x:a
        refines x:a x:f
        """
        with pytest.raises(ValidationError) as err:
            load_schema(doc)
        assert "cross-category" in str(err.value)

    def test_dangling_refinement_rejected(self):
        doc = """
        prefix x urn:x
        concept Function x:f
        refines x:f x:missing
        """
        with pytest.raises(ValidationError) as err:
            load_schema(doc)
        assert "undeclared" in str(err.value)

    def test_unknown_relation_name_rejected(self):
        doc = """
        prefix x urn:x
        concept Agent x:a
        relation teleports Agent Agent
        """
        with pytest.raises(ParseError) as err:
            load_schema(doc)
        assert "teleports" in str(err.value)

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(ParseError) as err:
            load_schema("concept Agent nope:a\n")
        assert "prefix" in str(err.value)

    def test_all_errors_reported_not_just_first(self):
        doc = """
        prefix x urn:x
        concept Wat x:a
        relation teleports Agent Agent
        """
        with pytest.raises(ParseError) as err:
            load_schema(doc)
        assert len(err.value.violations) == 2

    def test_param_declarations_inherit_along_refinement(self):
        doc = """
        prefix x urn:x
        concept Service x:Base
        concept Service x:Derived
        refines x:Derived x:Base
        param x:Base weight number kg
        param x:Derived priority number
        """
        schema = load_schema(doc)
        params = schema.params_for(cid("x:Derived"))
        assert set(params) == {"weight", "priority"}
        assert params["weight"].unit == "kg"

    def test_deterministic_for_identical_documents(self):
        assert load_schema(TEST_ONTOLOGY) == load_schema(TEST_ONTOLOGY)


class TestRefinement:
    def test_reflexive(self, schema):
        assert is_refinement(schema, cid("t:FA"), cid("t:FA"))

    def test_transitive_chain(self):
        doc = """
        prefix f urn:x
        concept Function f:a
        concept Function f:b
        concept Function f:c
        refines f:a f:b
        refines f:b f:c
        """
        schema = load_schema(doc)
        assert is_refinement(schema, cid("f:a"), cid("f:c"))
        assert not is_refinement(schema, cid("f:c"), cid("f:a"))

    def test_unknown_concept_raises(self, schema):
        with pytest.raises(UnknownConcept):
            is_refinement(schema, cid("t:FA"), cid("t:Nope"))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_reachability_on_random_dag(self, seed):
        rng = random.Random(seed)
        names = [f"c{i}" for i in range(20)]
        lines = ["prefix d urn:dag"] + [f"concept Function d:{n}" for n in names]
        edges = set()
        for i, child in enumerate(names):
            for parent in names[i + 1 :]:  # index order keeps it acyclic
                if rng.random() < 0.15:
                    edges.add((child, parent))
                    lines.append(f"refines d:{child} d:{parent}")
        schema = load_schema("\n".join(lines))

        def reachable(a: str, b: str) -> bool:
            stack, seen = [a], set()
            while stack:
                cur = stack.pop()
                if cur == b:
                    return True
                if cur in seen:
                    continue
                seen.add(cur)
                stack.extend(p for (c, p) in edges if c == cur)
            return False

        for a in names:
            for b in names:
                expected = reachable(a, b)
                assert is_refinement(schema, cid(f"d:{a}"), cid(f"d:{b}")) == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_closure_matches_pair_scan_on_random_dags(self, data):
        n = data.draw(st.integers(1, 14))
        # names are a random permutation of the topological order, so the
        # closure cannot lean on name order
        names = [f"d:c{i}" for i in data.draw(st.permutations(range(n)))]
        edges = data.draw(
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]))
        )
        lines = ["prefix d urn:dag"] + [f"concept Function {name}" for name in names]
        lines += [f"refines {names[c]} {names[p]}" for c, p in sorted(edges)]
        schema = load_schema("\n".join(lines))
        pairs = schema.refinements

        def ancestors(concept):  # the pair-scanning DFS the closure replaced
            seen, stack = set(), [concept]
            while stack:
                cur = stack.pop()
                if cur in seen:
                    continue
                seen.add(cur)
                stack.extend(p for (c, p) in pairs if c == cur)
            return frozenset(seen)

        def covers(provided, wanted):
            return schema.declares(wanted) and any(
                schema.declares(p) and wanted in ancestors(p) for p in provided
            )

        declared = [cid(name) for name in names]
        undeclared = [cid("d:ghost"), cid("x:c0")]
        everything = declared + undeclared
        for a in everything:
            assert schema.ancestors(a) == ancestors(a)
        for a in declared:
            for b in declared:
                assert is_refinement(schema, a, b) == (b in ancestors(a))
        for wanted in everything:
            provided = data.draw(st.sets(st.sampled_from(everything), max_size=4))
            assert schema.covers(provided, wanted) == covers(provided, wanted)

        provided = data.draw(st.sets(st.sampled_from(everything), max_size=5))
        mask = schema.closure_mask(provided)
        for wanted in everything:
            assert schema.mask_covers(mask, wanted) == covers(provided, wanted)
        assert schema.closure_mask(undeclared) == 0
        # "x:c0" shares its local name with a declared concept but is not one
        local = data.draw(st.sampled_from(["c0", "c1", "ghost"]))
        named = [c for c in declared if c.local_name == local]
        assert bool(mask & schema.named_mask(Category.FUNCTION, local)) == any(
            covers(provided, c) for c in named
        )
        assert schema.named_mask(Category.AGENT, local) == 0

        # components providing drawn sets, some with undeclared functions
        parts = data.draw(st.lists(st.sets(st.sampled_from(everything), max_size=3), max_size=3))
        h = Hypothesis.build(
            [Role(f"r{i}", frozenset()) for i in range(len(parts))],
            assignment={f"r{i}": Component(f"u{i}", cid("d:unit"), frozenset(p)) for i, p in enumerate(parts)},
        )
        wanted = frozenset(data.draw(st.sets(st.sampled_from(everything))))
        pooled = frozenset().union(*parts)
        assert _covered(provider_mask(h, schema), wanted, schema) == frozenset(w for w in wanted if covers(pooled, w))

    def test_partial_order_antisymmetry(self, schema):
        concepts = list(schema.concepts)
        for a in concepts:
            for b in concepts:
                if a != b and schema.category(a) is schema.category(b):
                    assert not (is_refinement(schema, a, b) and is_refinement(schema, b, a))


def _naive_fact_check(schema, k: AssertionBase) -> int:
    """Independent per-fact validator; returns the number of violations."""
    count = 0
    for ind, concept in k.individuals.items():
        if concept not in schema.concepts:
            count += 1
    for relation, subj, obj in k.relation_facts:
        decl = schema.relations.get(relation)
        if decl is None:
            count += 1
            continue
        for ind, want in ((subj, decl.domain), (obj, decl.range)):
            concept = k.individuals.get(ind)
            if concept is None:
                count += 1
            elif concept in schema.concepts and schema.concepts[concept] is not want:
                count += 1
    for ind, name, value in k.parameter_facts:
        concept = k.individuals.get(ind)
        if concept is None:
            count += 1
            continue
        if concept not in schema.concepts:
            continue
        decl = schema.params_for(concept).get(name)
        if decl is None:
            count += 1
        elif decl.kind == "number" and not isinstance(value, (int, float)):
            count += 1
    return count


class TestConsistency:
    def test_empty_base_is_consistent(self, schema):
        report = check_consistency(schema, AssertionBase({}, (), ()))
        assert report.consistent
        assert report.violations == ()

    def test_domain_category_mismatch_reported(self, schema):
        k = AssertionBase(
            individuals={"zone1": cid("t:Zone"), "f1": cid("t:FA")},
            relation_facts=(("executes", "zone1", "f1"),),
            parameter_facts=(),
        )
        report = check_consistency(schema, k)
        assert not report.consistent
        assert any(code == "domain-category-mismatch" for code, _ in report.violations)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_facts_match_naive_oracle(self, schema, seed):
        rng = random.Random(seed)
        pool = sorted(schema.concepts)
        individuals = {f"i{n}": rng.choice(pool) for n in range(10)}
        relations = list(schema.relations) + ["bogus"]
        facts = tuple(
            (rng.choice(relations), rng.choice(sorted(individuals)), rng.choice(sorted(individuals)))
            for _ in range(50)
        )
        params = tuple(
            (rng.choice(sorted(individuals)), rng.choice(["priority", "junk"]), rng.choice([1, "x"]))
            for _ in range(10)
        )
        k = AssertionBase(individuals=individuals, relation_facts=facts, parameter_facts=params)
        report = check_consistency(schema, k)
        assert len(report.violations) == _naive_fact_check(schema, k)
        # the facts of a relation, read from the index built at construction,
        # are the declaration-order filter that was run on every read
        for relation in relations + ["never-declared"]:
            assert k.facts_named(relation) == tuple(f for f in facts if f[0] == relation)
        assert k == AssertionBase(individuals, facts, params) and "_by_relation" not in repr(k)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_adding_a_fact_never_removes_violations(self, seed):
        schema = load_schema(TEST_ONTOLOGY)
        rng = random.Random(seed)
        individuals = {f"i{n}": rng.choice(sorted(schema.concepts)) for n in range(6)}
        names = sorted(individuals)
        all_facts = [
            (rng.choice(sorted(schema.relations)), rng.choice(names), rng.choice(names))
            for _ in range(12)
        ]
        base = AssertionBase(individuals, tuple(all_facts[:6]), ())
        grown = AssertionBase(individuals, tuple(all_facts), ())
        before = set(check_consistency(schema, base).violations)
        after = set(check_consistency(schema, grown).violations)
        assert before <= after


PARTS = st.text(alphabet=st.characters(blacklist_characters=":", blacklist_categories=("Cs",)), min_size=1)


class TestConceptId:
    def test_requires_namespace_and_local_name(self):
        with pytest.raises(ValueError):
            ConceptId("", "x")
        with pytest.raises(ValueError):
            ConceptId.parse("no-colon")

    @given(st.tuples(PARTS, PARTS), st.tuples(PARTS, PARTS))
    @settings(max_examples=200, deadline=None)
    def test_value_semantics_are_those_of_the_pair(self, p, q):
        a, b = ConceptId(*p), ConceptId(*q)
        assert (a.namespace, a.local_name) == p
        assert (a == b) == (p == q) and (a != b) == (p != q)
        assert (a < b) == (p < q) and (a <= b) == (p <= q) and (a > b) == (p > q)
        assert hash(a) == hash(p)
        assert ConceptId(namespace=p[0], local_name=p[1]) == a
        assert ConceptId.parse(str(a)) == a and str(a) == f"{p[0]}:{p[1]}"
        assert repr(a) == f"ConceptId(namespace={p[0]!r}, local_name={p[1]!r})"
        assert {a: 1}.get(ConceptId(*p)) == 1

    @given(PARTS)
    def test_empty_parts_are_refused(self, part):
        for args in ((part, ""), ("", part), ("", "")):
            with pytest.raises(ValueError):
                ConceptId(*args)
        with pytest.raises(ValueError):
            ConceptId.parse(f"{part}:")
        with pytest.raises(ValueError):
            ConceptId.parse(f":{part}")

    def test_total_ordering_is_deterministic(self):
        ids = [cid("b:x"), cid("a:z"), cid("a:a")]
        assert sorted(ids) == [cid("a:a"), cid("a:z"), cid("b:x")]

    def test_category_enum_matches_fixed_vocabulary(self, schema):
        assert schema.category(cid("t:Req")) is Category.SERVICE
