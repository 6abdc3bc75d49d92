"""Tests for the index structures and the external IR engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel.database import Database
from repro.datamodel.indexes import HashIndex, IndexRegistry, SortedIndex
from repro.datamodel.ir import InvertedTextIndex, tokenize
from repro.datamodel.oid import OID
from repro.datamodel.schema import ClassDef, PropertyDef, Schema
from repro.datamodel.types import INT
from repro.errors import IndexError_


def oid(serial: int) -> OID:
    return OID("Paragraph", serial)


#: letters whose lowercase is (or starts with) an ASCII letter or that
#: change length when cased — KELVIN SIGN, dotted capital I, sharp s —
#: beside ASCII letters, digits and punctuation
IR_ALPHABET = "\u212a\u0130\u00dfkKiIsSaB09 .,-"


class TestHashIndex:
    def test_insert_and_lookup(self):
        index = HashIndex("Document", "title")
        index.insert("a", oid(1))
        index.insert("a", oid(2))
        index.insert("b", oid(3))
        assert index.lookup("a") == {oid(1), oid(2)}
        assert index.lookup("b") == {oid(3)}
        assert index.lookup("missing") == set()
        assert len(index) == 3
        assert index.distinct_keys() == 2

    def test_lookup_returns_copy(self):
        index = HashIndex("Document", "title")
        index.insert("a", oid(1))
        result = index.lookup("a")
        result.add(oid(99))
        assert index.lookup("a") == {oid(1)}

    def test_remove_and_update(self):
        index = HashIndex("Document", "title")
        index.insert("a", oid(1))
        index.update("a", "b", oid(1))
        assert index.lookup("a") == set()
        assert index.lookup("b") == {oid(1)}
        index.remove("b", oid(1))
        assert len(index) == 0

    def test_remove_missing_entry_raises(self):
        index = HashIndex("Document", "title")
        with pytest.raises(IndexError_):
            index.remove("a", oid(1))

    def test_unhashable_keys_are_normalized(self):
        index = HashIndex("Document", "tags")
        index.insert(["a", "b"], oid(1))
        assert index.lookup(["a", "b"]) == {oid(1)}
        index.insert({"x"}, oid(2))
        assert index.lookup({"x"}) == {oid(2)}

    def test_lookup_counter(self):
        index = HashIndex("Document", "title")
        index.lookup("a")
        index.lookup("b")
        assert index.lookup_count == 2


class TestSortedIndex:
    def build(self) -> SortedIndex:
        index = SortedIndex("Paragraph", "number")
        for serial, key in enumerate([5, 1, 3, 3, 9], start=1):
            index.insert(key, oid(serial))
        return index

    def test_lookup_equality(self):
        index = self.build()
        assert index.lookup(3) == {oid(3), oid(4)}
        assert index.lookup(7) == set()
        # NULLs are never indexed; None means "unbounded" only in range()
        assert index.lookup(None) == set()

    def test_range_inclusive_exclusive(self):
        index = self.build()
        assert index.range(3, 5) == {oid(1), oid(3), oid(4)}
        assert index.range(3, 5, include_low=False) == {oid(1)}
        assert index.range(3, 5, include_high=False) == {oid(3), oid(4)}

    def test_open_ended_ranges(self):
        index = self.build()
        assert index.range(None, 3) == {oid(2), oid(3), oid(4)}
        assert index.range(5, None) == {oid(1), oid(5)}
        assert index.range(None, None) == {oid(i) for i in range(1, 6)}

    def test_min_max(self):
        index = self.build()
        assert index.min_key() == 1
        assert index.max_key() == 9
        assert SortedIndex("X", "y").min_key() is None

    def test_remove_and_update(self):
        index = self.build()
        index.remove(3, oid(3))
        assert index.lookup(3) == {oid(4)}
        index.update(9, 2, oid(5))
        assert index.lookup(2) == {oid(5)}
        with pytest.raises(IndexError_):
            index.remove(42, oid(1))


class TestIndexRegistry:
    def test_register_and_get(self):
        registry = IndexRegistry()
        registry.create_hash_index("Document", "title")
        registry.create_sorted_index("Paragraph", "number")
        assert registry.has("Document", "title")
        assert registry.get("Paragraph", "number").kind == "sorted"
        assert registry.get("Nope", "x") is None
        assert len(registry) == 2
        assert len(registry.for_class("Document")) == 1

    def test_duplicate_index_rejected(self):
        registry = IndexRegistry()
        registry.create_hash_index("Document", "title")
        with pytest.raises(IndexError_):
            registry.create_sorted_index("Document", "title")

    def test_notify_insert_and_update(self):
        registry = IndexRegistry()
        index = registry.create_hash_index("Document", "title")
        registry.notify_insert("Document", "title", "a", oid(1))
        registry.notify_insert("Other", "title", "a", oid(2))  # no such index: no-op
        assert index.lookup("a") == {oid(1)}
        registry.notify_update("Document", "title", "a", "b", oid(1))
        assert index.lookup("b") == {oid(1)}


class TestTokenizer:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Hello, World! 42") == ["hello", "world", "42"]

    def test_tokenize_empty(self):
        assert tokenize("") == []
        assert tokenize("!!!") == []


class TestInvertedTextIndex:
    def build(self) -> InvertedTextIndex:
        engine = InvertedTextIndex()
        engine.index_text(oid(1), "query optimization for methods")
        engine.index_text(oid(2), "semantic query optimization")
        engine.index_text(oid(3), "object oriented databases")
        return engine

    def test_retrieve_single_word(self):
        engine = self.build()
        assert engine.retrieve("query") == {oid(1), oid(2)}
        assert engine.retrieve("databases") == {oid(3)}
        assert engine.retrieve("missing") == set()

    def test_retrieve_multi_word_is_conjunctive_and_verified(self):
        engine = self.build()
        assert engine.retrieve("query optimization") == {oid(1), oid(2)}
        # both words occur in oid(1) but not adjacently in oid(2)? they are —
        # use a phrase that only matches one document
        assert engine.retrieve("semantic query") == {oid(2)}

    def test_retrieve_is_case_insensitive(self):
        engine = self.build()
        assert engine.retrieve("QUERY") == {oid(1), oid(2)}

    def test_scan_contains(self):
        engine = self.build()
        assert engine.scan_contains(oid(1), "optimization")
        assert not engine.scan_contains(oid(3), "optimization")
        assert not engine.scan_contains(oid(99), "anything")

    def test_reindex_replaces_old_content(self):
        engine = self.build()
        engine.index_text(oid(1), "completely different words")
        assert oid(1) not in engine.retrieve("query")
        assert oid(1) in engine.retrieve("different")

    def test_remove(self):
        engine = self.build()
        engine.remove(oid(2))
        assert engine.retrieve("semantic") == set()
        assert engine.document_count() == 2
        engine.remove(oid(99))  # removing an unknown OID is a no-op

    def test_counters_track_work(self):
        engine = self.build()
        engine.retrieve("query")
        engine.scan_contains(oid(1), "methods")
        counters = engine.counters()
        assert counters["retrieve_calls"] == 1
        assert counters["contains_calls"] == 1
        assert counters["chars_scanned"] > 0
        assert counters["cost_units"] > 0
        engine.reset_counters()
        assert engine.counters()["cost_units"] == 0

    def test_vocabulary_and_posting_sizes(self):
        engine = self.build()
        assert engine.vocabulary_size() > 5
        assert engine.posting_list_size("query") == 2
        assert engine.document_frequency(["query", "missing"]) == {
            "query": 2, "missing": 0}


class TestRetrieveAgreesWithScan:
    """E5 holds only if ``retrieve`` finds exactly what ``contains_string``
    finds: both must see the same lowered text."""

    def test_kelvin_sign_lowers_to_a_word_letter(self):
        engine = InvertedTextIndex()
        engine.index_text(oid(1), "the \u212aey word")  # KELVIN SIGN, then "ey"
        assert engine.scan_contains(oid(1), "key")
        assert engine.retrieve("key") == {oid(1)}
        assert engine.retrieve("KEY") == {oid(1)}
        assert engine.retrieve("\u212aEY") == {oid(1)}

    def test_e5_rewrite_returns_what_the_naive_plan_returns(self):
        from repro import Session
        from repro.workloads import (document_knowledge,
                                     generate_document_database)
        database = generate_document_database(n_documents=2)
        (first, *_) = database.extension("Paragraph")
        database.update(first, content="the \u212aey word")
        session = Session(database,
                               knowledge=document_knowledge(database.schema))
        query = "ACCESS p FROM p IN Paragraph WHERE p->contains_string('key')"
        optimized = session.execute(query)
        assert "retrieve_by_string" in session.explain(query)
        assert optimized.value_set() == session.execute_naive(query).value_set()
        assert first in optimized.value_set()

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(st.text(alphabet=IR_ALPHABET, max_size=24),
                          min_size=1, max_size=6),
           needle=st.text(alphabet=IR_ALPHABET, max_size=6))
    def test_retrieve_equals_scanning_every_text(self, texts, needle):
        engine = InvertedTextIndex()
        for serial, text in enumerate(texts):
            engine.index_text(oid(serial), text)
        scanned = {oid(serial) for serial in range(len(texts))
                   if engine.scan_contains(oid(serial), needle)}
        assert engine.retrieve(needle) == scanned


def test_a_pinned_range_probe_answers_as_of_its_snapshot():
    """Under a snapshot pin, a sorted-index range probe keeps exactly the
    objects whose value *at the snapshot* lies in the range, whatever the
    live index holds after later writes — with both bounds inclusive or
    exclusive, and for values that were NULL."""
    schema = Schema("ranked")
    item = ClassDef("Item")
    item.add_property(PropertyDef("rank", INT))
    schema.add_class(item)
    database = Database(schema)
    database.create_sorted_index("Item", "rank")
    before = [None, 1, 3, 5, 7, 10, 20]
    oids = database.create_many("Item", [{"rank": r} for r in before])
    with database.snapshot_scope() as ts:
        for oid in oids:  # every live rank moves into the range
            database.update(oid, rank=6)
        view = database.index_view(database.indexes.get("Item", "rank"))

        def at_snapshot(low, high, include_low, include_high):
            return {database.value_at(oid, "rank", ts)
                    for oid in view.range(low, high, include_low=include_low,
                                          include_high=include_high)}

        assert at_snapshot(3, 10, True, True) == {3, 5, 7, 10}
        assert at_snapshot(3, 10, False, False) == {5, 7}
        assert at_snapshot(None, 5, True, False) == {1, 3}
        assert at_snapshot(7, None, False, True) == {10, 20}
    # the live index answers for the live values
    live = database.indexes.get("Item", "rank")
    assert live.range(6, 6, include_low=True, include_high=True) == set(oids)
