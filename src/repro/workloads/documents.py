"""Synthetic document database generator.

The paper evaluates its worked example on "a given typical database" of
documents; this generator produces a parameterised, reproducible stand-in:

* ``n_documents`` documents, each with a configurable number of sections and
  paragraphs per section;
* paragraph contents drawn from a Zipf-like vocabulary, with two controlled
  terms: the query term (default ``"Implementation"``) appears in a known
  fraction of paragraphs and the target title (default
  ``"Query Optimization"``) is given to a known number of documents —
  together they determine the selectivities of the motivating query;
* a fraction of paragraphs is made long so that the
  ``wordCount``/``largeParagraphs`` implication experiment has matches;
* the ``Document.title`` hash index and the ``Paragraph.content`` text index
  (the substrates of ``select_by_index`` and ``retrieve_by_string``) are
  created; ``Document.sections`` and ``Section.paragraphs`` are filled by
  the database's inverse-link upkeep and ``Document.largeParagraphs`` is
  populated consistently by the loader.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datamodel.database import Database
from repro.errors import WorkloadError
from repro.workloads.schema_library import (
    DEFAULT_LARGE_PARAGRAPH_THRESHOLD,
    document_schema,
)

__all__ = ["DocumentWorkloadConfig", "generate_document_database"]

#: the string searched for by the motivating query (Section 2.3)
QUERY_TERM = "Implementation"
#: the document title used by the motivating query
TARGET_TITLE = "Query Optimization"


@dataclass
class DocumentWorkloadConfig:
    """Parameters of the synthetic document database."""

    n_documents: int = 50
    sections_per_document: int = 4
    paragraphs_per_section: int = 5
    words_per_paragraph: int = 18
    vocabulary_size: int = 500
    #: fraction of paragraphs containing the query term
    query_term_fraction: float = 0.05
    #: number of documents carrying the target title
    target_title_documents: int = 1
    #: guaranteed number of query-term paragraphs inside each target document
    #: (so the motivating query never comes back empty)
    target_matches: int = 2
    #: fraction of paragraphs made "large" (long content)
    large_paragraph_fraction: float = 0.03
    large_paragraph_threshold: int = DEFAULT_LARGE_PARAGRAPH_THRESHOLD
    seed: int = 42
    query_term: str = QUERY_TERM
    target_title: str = TARGET_TITLE

    def validate(self) -> None:
        if self.n_documents <= 0:
            raise WorkloadError("n_documents must be positive")
        if not 0 <= self.query_term_fraction <= 1:
            raise WorkloadError("query_term_fraction must be in [0, 1]")
        if not 0 <= self.large_paragraph_fraction <= 1:
            raise WorkloadError("large_paragraph_fraction must be in [0, 1]")
        if self.target_title_documents > self.n_documents:
            raise WorkloadError(
                "target_title_documents cannot exceed n_documents")

    @property
    def n_paragraphs(self) -> int:
        return (self.n_documents * self.sections_per_document
                * self.paragraphs_per_section)


def _zipf_vocabulary(rng: random.Random, size: int) -> list[str]:
    """A vocabulary of synthetic words (word0001 ... wordNNNN)."""
    del rng  # deterministic by construction
    return [f"word{i:04d}" for i in range(1, size + 1)]


def _pick_words(rng: random.Random, vocabulary: list[str], count: int) -> list[str]:
    """Pick words with a Zipf-like skew (low indexes are more frequent)."""
    words = []
    size = len(vocabulary)
    for _ in range(count):
        # inverse-CDF style skew: squaring a uniform sample favours low ranks
        rank = int((rng.random() ** 2) * size)
        words.append(vocabulary[min(rank, size - 1)])
    return words


def generate_document_database(config: DocumentWorkloadConfig | None = None,
                               **overrides) -> Database:
    """Generate a document database according to *config*.

    Keyword overrides are applied on top of the (default) config, so tests
    can write ``generate_document_database(n_documents=10)``.
    """
    if config is None:
        config = DocumentWorkloadConfig()
    if overrides:
        config = DocumentWorkloadConfig(**{**config.__dict__, **overrides})
    config.validate()

    rng = random.Random(config.seed)
    schema = document_schema()
    database = Database(schema, name=f"documents[{config.n_documents}]")
    vocabulary = _zipf_vocabulary(rng, config.vocabulary_size)

    # Decide up front which paragraphs carry the query term / are large, so
    # the fractions are exact rather than stochastic.
    total_paragraphs = config.n_paragraphs
    term_count = max(1, round(total_paragraphs * config.query_term_fraction)) \
        if config.query_term_fraction > 0 else 0
    large_count = max(1, round(total_paragraphs * config.large_paragraph_fraction)) \
        if config.large_paragraph_fraction > 0 else 0
    indexes = list(range(total_paragraphs))
    rng.shuffle(indexes)
    term_paragraphs = set(indexes[:term_count])
    rng.shuffle(indexes)
    large_paragraphs_set = set(indexes[:large_count])

    paragraph_counter = 0
    title_assignments = set(rng.sample(range(config.n_documents),
                                       config.target_title_documents))

    for doc_index in range(config.n_documents):
        is_target = doc_index in title_assignments
        forced_matches_left = config.target_matches if is_target else 0
        if is_target:
            title = config.target_title
        else:
            topic = rng.choice(vocabulary)
            title = f"Report {doc_index:04d} on {topic}"
        author = f"Author {rng.randint(1, max(2, config.n_documents // 5))}"
        doc_oid = database.create("Document", title=title, author=author,
                                  sections=set(), largeParagraphs=set())

        doc_large_paragraphs = set()
        for sec_index in range(config.sections_per_document):
            sec_oid = database.create(
                "Section",
                number=sec_index + 1,
                title=f"Section {sec_index + 1} of {title}",
                document=doc_oid,
                paragraphs=set())

            for par_index in range(config.paragraphs_per_section):
                word_count = config.words_per_paragraph
                if paragraph_counter in large_paragraphs_set:
                    word_count = config.large_paragraph_threshold + rng.randint(5, 25)
                words = _pick_words(rng, vocabulary, word_count)
                force_match = forced_matches_left > 0
                if force_match:
                    forced_matches_left -= 1
                if paragraph_counter in term_paragraphs or force_match:
                    position = rng.randrange(len(words) + 1)
                    words.insert(position, config.query_term)
                content = " ".join(words)
                par_oid = database.create(
                    "Paragraph",
                    number=par_index + 1,
                    section=sec_oid,
                    content=content)
                if len(content.split()) > config.large_paragraph_threshold:
                    doc_large_paragraphs.add(par_oid)
                paragraph_counter += 1

        # The inverse sides (Document.sections, Section.paragraphs) were
        # filled by the database's link upkeep as each child was created;
        # the derived largeParagraphs set is the loader's to write.
        database.set_value(doc_oid, "largeParagraphs", doc_large_paragraphs)

    # External substrates: the user-defined title index and the IR engine.
    database.create_hash_index("Document", "title")
    database.create_text_index("Paragraph", "content")
    database.reset_statistics()
    return database
