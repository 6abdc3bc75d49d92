"""Tests for the method-implementation factories against the document schema."""

from __future__ import annotations

import pytest

from repro.datamodel.database import Database
from repro.datamodel.methods import (
    body_path,
    collect_over_property,
    index_lookup_method,
    path_method,
    same_path_target_method,
    text_contains_method,
    text_retrieve_method,
)
from repro.errors import MethodInvocationError
from repro.optimizer.generator import OptimizerGenerator
from repro.optimizer.rules import CallableTransformationRule
from repro.workloads import TARGET_TITLE, document_schema


@pytest.fixture(scope="module")
def db(request):
    from repro.workloads import generate_document_database
    return generate_document_database(n_documents=4)


def first(db, class_name):
    return db.extension(class_name)[0]


class TestPathMethod:
    def test_document_follows_section_document(self, db):
        paragraph = first(db, "Paragraph")
        expected = db.value(db.value(paragraph, "section"), "document")
        assert db.invoke(paragraph, "document") == expected

    def test_path_method_returns_none_on_missing_link(self, db):
        # build a dangling paragraph: section is None
        orphan = db.create("Paragraph", number=99, section=None, content="x")
        assert db.invoke(orphan, "document") is None

    def test_factory_direct_invocation(self, db):
        impl = path_method("section")
        paragraph = first(db, "Paragraph")
        assert impl(db.context, paragraph) == db.value(paragraph, "section")


class TestCollectOverProperty:
    def test_document_paragraphs_collects_all_sections(self, db):
        document = first(db, "Document")
        collected = db.invoke(document, "paragraphs")
        expected = set()
        for section in db.value(document, "sections"):
            expected |= db.value(section, "paragraphs")
        assert collected == expected
        assert len(collected) == 20  # 4 sections x 5 paragraphs

    def test_collect_over_missing_property_value(self, db):
        empty_doc = db.create("Document", title="empty", sections=set(),
                              largeParagraphs=set())
        assert db.invoke(empty_doc, "paragraphs") == set()

    def test_collect_handles_single_valued_intermediate(self, db):
        impl = collect_over_property("section", "paragraphs")
        paragraph = first(db, "Paragraph")
        result = impl(db.context, paragraph)
        assert paragraph in result


class TestIndexLookupMethod:
    def test_select_by_index_finds_target_title(self, db):
        result = db.invoke_class_method("Document", "select_by_index", TARGET_TITLE)
        assert len(result) == 1
        (document,) = result
        assert db.value(document, "title") == TARGET_TITLE

    def test_select_by_index_misses(self, db):
        assert db.invoke_class_method("Document", "select_by_index", "no such") == set()

    def test_missing_index_raises(self, db):
        impl = index_lookup_method("Section", "title")
        with pytest.raises(MethodInvocationError):
            impl(db.context, "Section", "anything")


class TestTextMethods:
    def test_contains_string_agrees_with_content(self, db):
        for paragraph in db.extension("Paragraph")[:20]:
            content = db.value(paragraph, "content")
            assert db.invoke(paragraph, "contains_string", "Implementation") == \
                ("implementation" in content.lower())

    def test_retrieve_by_string_equals_scan(self, db):
        retrieved = db.invoke_class_method("Paragraph", "retrieve_by_string",
                                           "Implementation")
        scanned = {p for p in db.extension("Paragraph")
                   if "implementation" in db.value(p, "content").lower()}
        assert retrieved == scanned
        assert retrieved  # the generator guarantees matches

    def test_contains_string_without_engine_falls_back_to_property(self, db):
        impl = text_contains_method("Section", "title")
        section = first(db, "Section")
        title = db.value(section, "title")
        assert impl(db.context, section, title.split()[0])
        assert not impl(db.context, section, "definitely-not-present")

    def test_retrieve_without_engine_raises(self, db):
        impl = text_retrieve_method("Section", "title")
        with pytest.raises(MethodInvocationError):
            impl(db.context, "Section", "x")


class TestSameDocument:
    def test_same_document_true_within_document(self, db):
        document = first(db, "Document")
        paragraphs = sorted(db.invoke(document, "paragraphs"))
        assert db.invoke(paragraphs[0], "sameDocument", paragraphs[1])

    def test_same_document_false_across_documents(self, db):
        documents = db.extension("Document")
        p1 = sorted(db.invoke(documents[0], "paragraphs"))[0]
        p2 = sorted(db.invoke(documents[1], "paragraphs"))[0]
        assert not db.invoke(p1, "sameDocument", p2)

    def test_factory_uses_named_method(self, db):
        impl = same_path_target_method("document")
        document = first(db, "Document")
        paragraphs = sorted(db.invoke(document, "paragraphs"))
        assert impl(db.context, paragraphs[0], paragraphs[1])


class TestWordCount:
    def test_word_count_matches_split(self, db):
        paragraph = first(db, "Paragraph")
        content = db.value(paragraph, "content")
        assert db.invoke(paragraph, "wordCount") == len(content.split())

    def test_large_paragraphs_property_is_consistent(self, db):
        threshold = 40
        for document in db.extension("Document"):
            large = db.value(document, "largeParagraphs")
            for paragraph in db.invoke(document, "paragraphs"):
                expected = db.invoke(paragraph, "wordCount") > threshold
                assert (paragraph in large) == expected


def test_collect_over_property_skips_missing_links():
    """A document without sections, or whose section has no paragraph set
    yet, collects the empty set; a single reference collects like a set of
    one."""
    schema = document_schema()
    database = Database(schema)
    lonely = database.create("Document", title="lonely")
    assert database.invoke(lonely, "paragraphs") == set()
    section = database.create("Section", number=1, document=lonely)
    assert database.value(lonely, "sections") == {section}
    assert database.invoke(lonely, "paragraphs") == set()


def test_only_path_and_collect_bodies_have_a_path():
    assert body_path(path_method("section", "document")) == \
        ("section", "document")
    assert body_path(collect_over_property("sections", "paragraphs")) == \
        ("sections", "paragraphs")
    assert body_path(same_path_target_method("document")) is None
    assert body_path(lambda ctx, receiver: None) is None


def test_extra_rules_join_the_generated_rule_set(doc_database):
    rule = CallableTransformationRule(name="extra-noop",
                                      function=lambda plan, ctx: None)
    optimizer = OptimizerGenerator(doc_database.schema).generate(
        database=doc_database, extra_rules=[rule])
    assert "extra-noop" in optimizer.rule_set.rule_names()
