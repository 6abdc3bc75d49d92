"""``method_analytics`` — the paper's query families on cached plans."""

from __future__ import annotations

import repro
from repro.datamodel.database import Database
from repro.workloads import document_knowledge, document_schema

from perfsuite.datagen import (LARGE_THRESHOLD, TERMS, generate_documents,
                               load_documents)
from perfsuite.ops import Op
from perfsuite.workloads.base import Workload, mixed

QUERIES = {
    "motivating": ("ACCESS p FROM p IN Paragraph WHERE p->contains_string(:term) "
                   "AND (p->document()).title == :title"),
    "contains": "ACCESS p FROM p IN Paragraph WHERE p->contains_string(:term)",
    "title": "ACCESS p FROM p IN Paragraph WHERE (p->document()).title == :title",
    # the threshold is a literal: implication I1 is stated for this constant
    "large_paragraphs": ("ACCESS p FROM p IN Paragraph "
                         f"WHERE p->wordCount() > {LARGE_THRESHOLD}"),
    "dependent_range": ("ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
                        "WHERE p->contains_string(:term)"),
    "tuple_access": ("ACCESS [doc: d.title, paras: d->paragraphs()] "
                     "FROM d IN Document WHERE d.author == :author"),
    "same_document": ("ACCESS [pn: p.number, qn: q.number] "
                      "FROM p IN Paragraph, q IN Paragraph "
                      "WHERE p->sameDocument(q) AND p.number == :n"),
}

#: shape -> operations per block of 100
MIX = {"motivating": 12, "contains_rare": 16, "contains_mid": 16,
       "contains_common": 12, "title": 16, "large_paragraphs": 4,
       "dependent_range": 6, "tuple_access": 16, "same_document": 2}


class MethodAnalytics(Workload):
    """Q-motivating, Q-contains at three selectivities, Q-title,
    Q-large-paragraphs, Q-dependent-range, Q-tuple-access and a narrowed
    Q-same-document, with rotating bind values."""

    name = "method_analytics"
    why = ("the paper's query families through cached plans over 8 000 paragraphs: "
           "physical execution, method dispatch and the text index do the work")

    def setup(self) -> None:
        rng = self.rng("data")
        self.data = generate_documents(rng, 20 if self.smoke else 400)
        self.mix = ({name: max(1, count // 8) for name, count in MIX.items()}
                    if self.smoke else MIX)
        database = Database(document_schema(), name="method_analytics")
        self.paragraphs = load_documents(database, self.data, self.fingerprint)
        database.create_hash_index("Document", "title")
        database.create_text_index("Paragraph", "content")
        database.create_hash_index("Paragraph", "number")
        knowledge = document_knowledge(database.schema, LARGE_THRESHOLD)
        connection = repro.connect(database, knowledge=knowledge,
                                   durability="memory", parallelism=1,
                                   tracing=False)
        connection.execute("ANALYZE")
        self.connections = [connection]
        self.knowledge = [knowledge]
        self._answers: dict = {}

    # -- the oracle: answers from the generator's records, in plain Python --
    def _paragraphs(self, indexes) -> frozenset:
        return frozenset(self.paragraphs[p] for p in indexes)

    def _containing(self, term: str) -> list[int]:
        """Substring rule of ``contains_string``: case-insensitive ``in``."""
        key = ("contains", term)
        if key not in self._answers:
            needle = term.lower()
            self._answers[key] = [p for p, content in enumerate(self.data.contents)
                                  if needle in content.lower()]
        return self._answers[key]

    def _titled(self, title: str) -> set[int]:
        key = ("title", title)
        if key not in self._answers:
            self._answers[key] = {d for d, t in enumerate(self.data.titles)
                                  if t == title}
        return self._answers[key]

    def _expect(self, shape: str, params: dict) -> frozenset:
        data = self.data
        if shape == "motivating":
            docs = self._titled(params["title"])
            return self._paragraphs(p for p in self._containing(params["term"])
                                    if data.doc_of(p) in docs)
        if shape.startswith("contains"):
            return self._paragraphs(self._containing(params["term"]))
        if shape == "title":
            docs = self._titled(params["title"])
            return self._paragraphs(p for p in range(data.n_paragraphs)
                                    if data.doc_of(p) in docs)
        if shape == "large_paragraphs":
            return self._paragraphs(
                p for p, content in enumerate(data.contents)
                if len(content.split()) > LARGE_THRESHOLD)
        if shape == "dependent_range":
            return frozenset(data.titles[data.doc_of(p)]
                             for p in self._containing(params["term"]))
        if shape == "tuple_access":
            ppd = data.paragraphs_per_doc
            return frozenset(
                (("doc", data.titles[d]),
                 ("paras", self._paragraphs(range(d * ppd, (d + 1) * ppd))))
                for d, author in enumerate(data.authors)
                if author == params["author"])
        # same_document: every document has every paragraph number
        return frozenset((("pn", params["n"]), ("qn", qn))
                         for qn in range(1, data.paragraphs_per_section + 1))

    def block(self, index: int) -> list[Op]:
        rng = self.rng(index)
        titles = sorted(set(self.data.titles))
        authors = sorted(set(self.data.authors))
        ops = []
        for shape in mixed(rng, self.mix):
            if shape == "motivating":
                params = {"term": rng.choice(TERMS["common"]),
                          "title": rng.choice(titles)}
            elif shape.startswith("contains_"):
                params = {"term": rng.choice(TERMS[shape.split("_")[1]])}
            elif shape == "title":
                params = {"title": rng.choice(titles)}
            elif shape == "large_paragraphs":
                params = None
            elif shape == "dependent_range":
                params = {"term": rng.choice(TERMS["mid"])}
            elif shape == "tuple_access":
                params = {"author": rng.choice(authors)}
            else:
                params = {"n": rng.randrange(self.data.paragraphs_per_section) + 1}
            key = (shape, tuple(sorted(params.items())) if params else ())
            if key not in self._answers:
                self._answers[key] = self._expect(shape, params)
            sql = QUERIES["contains" if shape.startswith("contains_") else shape]
            ops.append(Op(shape, "read", sql, params, self._answers[key]))
        return ops
