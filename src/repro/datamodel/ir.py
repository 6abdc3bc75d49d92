"""External information-retrieval engine.

The paper's schema uses two externally implemented methods backed by an IR
component:

* ``Paragraph.contains_string(s)`` — per-paragraph substring test, expensive
  because it scans the paragraph content on every call;
* ``Paragraph→retrieve_by_string(s)`` — bulk retrieval of all paragraphs
  containing ``s``, cheap because it consults an inverted index.

Equivalence E5 states that the selection over ``contains_string`` is
semantically equivalent to one ``retrieve_by_string`` call, which is exactly
the asymmetry this module makes measurable: both operations are implemented
here with explicit cost accounting so the benchmarks can report how much
work each plan performed.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from repro.datamodel.oid import OID

__all__ = ["TextDocument", "InvertedTextIndex", "tokenize"]

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Split *text* into lowercase word tokens (letters and digits).

    The text is lowered before it is split, exactly as ``contains_string``
    lowers it before its substring test: a character that only lowers to
    a letter (the KELVIN SIGN to ``k``) then splits the same way for the
    index and for the scan."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class TextDocument:
    """One indexed text: the owning OID and its raw content.

    The lowercase form of the content is precomputed at indexing time so
    that the per-call substring tests do not re-lower the content on every
    ``contains_string`` probe (the cost accounting still charges the scan).
    """

    oid: OID
    content: str
    tokens: tuple[str, ...] = field(default_factory=tuple)
    content_lower: str = ""

    def __post_init__(self) -> None:
        if not self.content_lower:
            self.content_lower = self.content.lower()

    @classmethod
    def from_content(cls, oid: OID, content: str) -> "TextDocument":
        lowered = content.lower()
        return cls(oid=oid, content=content,
                   tokens=tuple(_TOKEN_RE.findall(lowered)),
                   content_lower=lowered)


class InvertedTextIndex:
    """Word-level inverted index with per-call cost accounting.

    ``scan_contains`` models the *external per-object* method
    (``contains_string``): it charges cost proportional to the content length
    of the probed object.  ``retrieve`` models the *bulk external* method
    (``retrieve_by_string``): it charges a fixed query cost plus a small cost
    per posting touched.
    """

    #: abstract cost units charged per character scanned by contains_string
    SCAN_COST_PER_CHAR = 0.01
    #: abstract cost units charged per retrieve_by_string call
    RETRIEVE_BASE_COST = 5.0
    #: abstract cost units charged per posting examined during retrieval
    RETRIEVE_COST_PER_POSTING = 0.05

    def __init__(self) -> None:
        self._postings: dict[str, set[OID]] = defaultdict(set)
        self._documents: dict[OID, TextDocument] = {}
        # externally observable work counters
        self.contains_calls = 0
        self.retrieve_calls = 0
        self.chars_scanned = 0
        self.postings_touched = 0
        self.cost_units = 0.0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def index_text(self, oid: OID, content: str) -> None:
        """(Re)index *content* under *oid*."""
        if oid in self._documents:
            self.remove(oid)
        document = TextDocument.from_content(oid, content)
        self._documents[oid] = document
        for token in set(document.tokens):
            self._postings[token].add(oid)

    def remove(self, oid: OID) -> None:
        document = self._documents.pop(oid, None)
        if document is None:
            return
        for token in set(document.tokens):
            bucket = self._postings.get(token)
            if bucket is not None:
                bucket.discard(oid)
                if not bucket:
                    del self._postings[token]

    # ------------------------------------------------------------------
    # the two external operations
    # ------------------------------------------------------------------
    def scan_contains(self, oid: OID, needle: str) -> bool:
        """Per-object substring test (models ``contains_string``)."""
        self.contains_calls += 1
        document = self._documents.get(oid)
        if document is None:
            return False
        self.chars_scanned += len(document.content)
        self.cost_units += len(document.content) * self.SCAN_COST_PER_CHAR
        return needle.lower() in document.content_lower

    def retrieve(self, needle: str) -> set[OID]:
        """Bulk retrieval of OIDs containing *needle* (exact substring
        semantics, like ``contains_string``).

        Each needle token selects the postings of every vocabulary word that
        *contains* the token (so partial-word needles are covered); the
        candidate sets are intersected and finally verified against the raw
        content.  This keeps the result identical to a full scan — which is
        what the paper's equivalence E5 asserts — while charging only
        index-proportional cost.
        """
        self.retrieve_calls += 1
        self.cost_units += self.RETRIEVE_BASE_COST
        words = tokenize(needle)
        if not words:
            candidates: set[OID] = set(self._documents)
        else:
            candidate_sets: list[set[OID]] = []
            for word in words:
                # collect postings of every vocabulary word containing the
                # token (the token itself included) so that partial-word
                # needles are never missed
                per_word: set[OID] = set()
                for vocabulary_word, postings in self._postings.items():
                    if word in vocabulary_word:
                        per_word |= postings
                candidate_sets.append(per_word)
                self.postings_touched += len(per_word)
                self.cost_units += len(per_word) * self.RETRIEVE_COST_PER_POSTING
            candidates = set.intersection(*candidate_sets) if candidate_sets else set()
        result: set[OID] = set()
        needle_lower = needle.lower()
        for oid in candidates:
            if needle_lower in self._documents[oid].content_lower:
                result.add(oid)
        return result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def document_count(self) -> int:
        return len(self._documents)

    def vocabulary_size(self) -> int:
        return len(self._postings)

    def posting_list_size(self, word: str) -> int:
        return len(self._postings.get(word.lower(), set()))

    def document_frequency(self, words: Iterable[str]) -> dict[str, int]:
        return {word: self.posting_list_size(word) for word in words}

    def reset_counters(self) -> None:
        self.contains_calls = 0
        self.retrieve_calls = 0
        self.chars_scanned = 0
        self.postings_touched = 0
        self.cost_units = 0.0

    def counters(self) -> dict[str, float]:
        return {
            "contains_calls": self.contains_calls,
            "retrieve_calls": self.retrieve_calls,
            "chars_scanned": self.chars_scanned,
            "postings_touched": self.postings_touched,
            "cost_units": self.cost_units,
        }
