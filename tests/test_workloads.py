"""Tests for the workload generators and paper fixtures."""

import pytest

from repro.constraints import satisfies
from repro.datalog import validate_program
from repro.engine import evaluate
from repro.workloads import (ALL_EXAMPLES, GenealogyParams,
                             OrganizationParams, UniversityParams,
                             generate_genealogy, generate_organization,
                             generate_university, load, random_digraph,
                             transitive_closure_program)
from repro.datalog.parser import parse_program
from tests.helpers import (chain_edges, layered_digraph, tree_edges,
                           unary_subset)


class TestPaperExamples:
    @pytest.mark.parametrize("factory", ALL_EXAMPLES)
    def test_programs_satisfy_assumptions(self, factory):
        example = factory()
        report = validate_program(example.program)
        assert report.ok, f"{example.name}: {report.summary()}"

    @pytest.mark.parametrize("factory", ALL_EXAMPLES)
    def test_ics_are_edb_only_and_connected(self, factory):
        example = factory()
        for ic in example.ics:
            assert ic.is_connected(), example.name
            assert ic.is_edb_only(example.program), example.name

    def test_load_by_name(self):
        assert load("example_4_3").pred == "anc"
        with pytest.raises(KeyError):
            load("example_9_9")

    def test_ic_lookup(self, ex43):
        assert ex43.ic("ic1").label == "ic1"
        with pytest.raises(KeyError):
            ex43.ic("ic9")


class TestGenericGenerators:
    def test_chain(self):
        db = chain_edges(5)
        assert len(db.relation("edge")) == 5

    def test_tree(self):
        db = tree_edges(depth=3, fanout=2)
        assert len(db.relation("edge")) == 2 + 4 + 8

    def test_random_digraph_acyclic(self, rng, tc_program):
        db = random_digraph(10, 20, rng)
        result = evaluate(tc_program, db)
        assert all(a != b for a, b in result.facts("reach"))

    def test_layered_depth(self, rng, tc_program):
        db = layered_digraph(layers=4, width=3, fanout=1, rng=rng)
        result = evaluate(tc_program, db)
        # The longest path spans exactly `layers` edges.
        assert result.stats.iterations <= 4 + 2

    def test_unary_subset(self, rng):
        db = chain_edges(10)
        unary_subset(db, "edge", 0, "marked", 1.0, rng)
        assert len(db.relation("marked")) == 10

    def test_tc_program_text(self):
        program = parse_program(transitive_closure_program())
        assert program.recursion_info().is_linear("reach")


class TestDomainGenerators:
    def test_university_consistent(self, rng, ex32):
        db = generate_university(UniversityParams(professors=12,
                                                  students=6, theses=6),
                                 rng)
        assert satisfies(db, *ex32.ics)
        assert len(db.relation("works_with")) >= 11  # the chain

    def test_university_fields_per_thesis(self, rng):
        params = UniversityParams(theses=5, fields=8, fields_per_thesis=4)
        db = generate_university(params, rng)
        assert len(db.relation("field")) > 5

    def test_university_evaluates(self, rng, ex32):
        db = generate_university(UniversityParams(professors=10,
                                                  students=5, theses=5),
                                 rng)
        result = evaluate(ex32.program, db)
        assert result.count("eval") >= len(db.facts("super"))

    def test_organization_consistent(self, rng, ex41):
        db = generate_organization(OrganizationParams(levels=4, width=6),
                                   rng)
        assert satisfies(db, *ex41.ics)
        assert len(db.facts("same_level")) > 0

    def test_organization_evaluates(self, rng, ex41):
        db = generate_organization(OrganizationParams(levels=4, width=6),
                                   rng)
        result = evaluate(ex41.program, db)
        assert result.count("triple") >= len(db.facts("same_level"))

    def test_genealogy_consistent(self, rng, ex43):
        db = generate_genealogy(GenealogyParams(generations=6, width=8),
                                rng)
        assert satisfies(db, *ex43.ics)

    def test_genealogy_age_policy(self, rng):
        params = GenealogyParams(generations=6, width=8,
                                 young_fraction=1.0)
        db = generate_genealogy(params, rng)
        # Anyone three or more generations above the bottom is old.
        for child, _, parent, parent_age in db.facts("par"):
            generation = int(parent.split("_")[0][1:])
            if params.generations - 1 - generation >= 3:
                assert parent_age > 50, (parent, parent_age)

    def test_genealogy_has_young_people(self, rng):
        db = generate_genealogy(GenealogyParams(generations=5, width=10,
                                                young_fraction=1.0), rng)
        ages = {age for _, age, _, _ in db.facts("par")}
        assert any(age <= 50 for age in ages)
