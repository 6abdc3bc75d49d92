"""Tests for the session facade, the engine helpers and the workload
generators (document and university schemas)."""

from __future__ import annotations

import pytest

from repro import QueryService, Session
from repro.errors import TranslationError, WorkloadError
from repro.vql.parser import parse_query
from repro.workloads import (
    DocumentWorkloadConfig,
    QUERY_TERM,
    TARGET_TITLE,
    document_workload,
    generate_document_database,
)


class TestSession:
    def test_parse_analyze_translate_pipeline(self, doc_session):
        query = "ACCESS p FROM p IN Paragraph WHERE p.number == 1"
        parsed = doc_session.parse(query)
        assert doc_session.parse(parsed) is parsed  # idempotent on Query objects
        analyzed = doc_session.analyze(query)
        assert analyzed.variable_class("p") == "Paragraph"
        translation = doc_session.translate(query)
        assert translation.output_ref == "p"

    def test_execute_returns_rows_and_values(self, doc_session):
        result = doc_session.execute(
            "ACCESS p FROM p IN Paragraph WHERE p.number == 1")
        assert len(result) == len(result.values)
        assert all(value.class_name == "Paragraph" for value in result.values)
        assert result.optimization is not None
        assert result.work["total_cost_units"] >= 0

    def test_execute_naive_skips_optimization(self, doc_session):
        result = doc_session.execute_naive(
            "ACCESS p FROM p IN Paragraph WHERE p.number == 1")
        assert result.optimization is None

    @pytest.mark.parametrize("query", [q.text for q in document_workload()],
                             ids=[q.name for q in document_workload()])
    def test_optimized_equals_naive_for_whole_workload(self, doc_session, query):
        """Correctness of optimization: every workload query returns exactly
        the same result set optimized and unoptimized."""
        naive = doc_session.execute_naive(query)
        optimized = doc_session.execute(query)
        assert naive.value_set() == optimized.value_set()

    @pytest.mark.parametrize("query", [q.text for q in document_workload()],
                             ids=[q.name for q in document_workload()])
    def test_structural_optimizer_is_also_correct(self, structural_session, query):
        naive = structural_session.execute_naive(query)
        optimized = structural_session.execute(query)
        assert naive.value_set() == optimized.value_set()

    def test_explain_contains_plans_and_costs(self, doc_session):
        text = doc_session.explain(
            "ACCESS p FROM p IN Paragraph WHERE p->contains_string('x')")
        assert "canonical logical plan" in text
        assert "physical plan" in text
        assert "estimated cost" in text

    def test_trace_renders_events(self, doc_session):
        text = doc_session.trace(
            "ACCESS p FROM p IN Paragraph "
            "WHERE (p->document()).title == 'Query Optimization'", limit=10)
        assert "optimization trace" in text

    def test_engine_helpers(self, doc_database, doc_knowledge):
        session = Session(doc_database, knowledge=doc_knowledge)
        assert session.execute("ACCESS d.title FROM d IN Document").values
        service = QueryService(doc_database, knowledge=doc_knowledge)
        result = service.execute("ACCESS d.title FROM d IN Document")
        assert TARGET_TITLE in set(result.values)


class TestUniversitySession:
    def test_path_method_query(self, uni_session):
        naive = uni_session.execute_naive(
            "ACCESS s FROM s IN Student "
            "WHERE s->departmentName() == 'Department of Databases 0'")
        optimized = uni_session.execute(
            "ACCESS s FROM s IN Student "
            "WHERE s->departmentName() == 'Department of Databases 0'")
        assert naive.value_set() == optimized.value_set()
        assert len(optimized) == 20  # all students of that department

    def test_query_method_equivalence(self, uni_session):
        result = uni_session.execute(
            "ACCESS d FROM d IN Department "
            "WHERE d.name == 'Department of Databases 0'")
        assert len(result) == 1

    def test_honours_implication_consistency(self, uni_session):
        naive = uni_session.execute_naive(
            "ACCESS s FROM s IN Student WHERE s.gpa >= 3.5")
        optimized = uni_session.execute(
            "ACCESS s FROM s IN Student WHERE s.gpa >= 3.5")
        assert naive.value_set() == optimized.value_set()


class TestDocumentGenerator:
    def test_database_shape_matches_config(self):
        db = generate_document_database(n_documents=5, sections_per_document=3,
                                        paragraphs_per_section=4)
        assert db.extension_size("Document") == 5
        assert db.extension_size("Section") == 15
        assert db.extension_size("Paragraph") == 60

    def test_generation_is_deterministic(self):
        a = generate_document_database(n_documents=3, seed=11)
        b = generate_document_database(n_documents=3, seed=11)
        paragraphs_a = [a.value(p, "content") for p in a.extension("Paragraph")]
        paragraphs_b = [b.value(p, "content") for p in b.extension("Paragraph")]
        assert paragraphs_a == paragraphs_b

    def test_different_seeds_differ(self):
        a = generate_document_database(n_documents=3, seed=1)
        b = generate_document_database(n_documents=3, seed=2)
        assert [a.value(p, "content") for p in a.extension("Paragraph")] != \
            [b.value(p, "content") for p in b.extension("Paragraph")]

    def test_target_title_and_matches_guaranteed(self, doc_database):
        titles = [doc_database.value(d, "title")
                  for d in doc_database.extension("Document")]
        assert titles.count(TARGET_TITLE) == 1
        matches = doc_database.invoke_class_method(
            "Paragraph", "retrieve_by_string", QUERY_TERM)
        target = next(d for d in doc_database.extension("Document")
                      if doc_database.value(d, "title") == TARGET_TITLE)
        target_paragraphs = doc_database.invoke(target, "paragraphs")
        assert matches & target_paragraphs  # the motivating query is non-empty

    def test_query_term_fraction_is_respected(self):
        db = generate_document_database(n_documents=10, query_term_fraction=0.1,
                                        target_matches=0)
        matches = db.invoke_class_method("Paragraph", "retrieve_by_string",
                                         QUERY_TERM)
        assert len(matches) == pytest.approx(0.1 * db.extension_size("Paragraph"),
                                             abs=2)

    def test_inverse_links_are_consistent(self, doc_database):
        for section in doc_database.extension("Section"):
            document = doc_database.value(section, "document")
            assert section in doc_database.value(document, "sections")
        for paragraph in doc_database.extension("Paragraph"):
            section = doc_database.value(paragraph, "section")
            assert paragraph in doc_database.value(section, "paragraphs")

    def test_indexes_are_created(self, doc_database):
        assert doc_database.indexes.has("Document", "title")
        assert doc_database.text_index("Paragraph", "content") is not None

    def test_statistics_are_reset_after_generation(self):
        db = generate_document_database(n_documents=2)
        assert db.statistics.total_method_calls() == 0
        assert db.statistics.objects_created == 0

    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            generate_document_database(n_documents=0)
        with pytest.raises(WorkloadError):
            generate_document_database(n_documents=2, query_term_fraction=2.0)
        with pytest.raises(WorkloadError):
            generate_document_database(n_documents=2, target_title_documents=5)

    def test_config_overrides(self):
        config = DocumentWorkloadConfig(n_documents=3)
        db = generate_document_database(config, sections_per_document=2)
        assert db.extension_size("Section") == 6


class TestUniversityGenerator:
    def test_shape(self, uni_database):
        assert uni_database.extension_size("Department") == 4
        assert uni_database.extension_size("Student") == 80

    def test_inverse_links_consistent(self, uni_database):
        for student in uni_database.extension("Student"):
            department = uni_database.value(student, "department")
            assert student in uni_database.value(department, "students")

    def test_honours_precomputation_consistent(self, uni_database):
        for department in uni_database.extension("Department"):
            honours = uni_database.value(department, "honoursStudents")
            for student in uni_database.value(department, "students"):
                assert (student in honours) == \
                    (uni_database.value(student, "gpa") >= 3.5)

    def test_course_participants_consistent(self, uni_database):
        for student in uni_database.extension("Student"):
            for course in uni_database.value(student, "courses"):
                assert student in uni_database.value(course, "participants")


class TestSessionEntryPoints:
    TEXT = "ACCESS p FROM p IN Paragraph WHERE p.number == 2"

    def test_a_parsed_query_runs_and_explains_like_its_text(self, doc_database):
        session = Session(doc_database)
        parsed = parse_query(self.TEXT)
        assert session.execute(parsed).value_set() == \
            session.execute(self.TEXT).value_set()
        assert session.explain(parsed) == session.explain(self.TEXT)

    def test_a_given_optimizer_is_used_as_is(self, doc_database, doc_session):
        session = Session(doc_database, optimizer=doc_session.optimizer)
        assert session.optimizer is doc_session.optimizer

    def test_empty_parameters_for_a_parameterless_query(self, doc_database):
        session = Session(doc_database)
        assert session.execute(self.TEXT, parameters={}).value_set() == \
            session.execute(self.TEXT).value_set()

    def test_a_first_range_over_a_method_result_is_refused(self, doc_database):
        with pytest.raises(TranslationError, match="first range declaration"):
            Session(doc_database).execute(
                "ACCESS p FROM p IN Paragraph->retrieve_by_string('x')")
