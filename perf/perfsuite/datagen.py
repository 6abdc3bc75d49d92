"""Benchmark-owned, seeded data generators and the dataset fingerprint.

Only schemas and semantic knowledge come from ``repro.workloads``; every
row is made here from the run's seed, kept as plain Python records (the
oracles answer from these, never from the database) and loaded through
``Database.create_many``.  Counts are exact, not stochastic — a term is
placed in exactly ``round(share * paragraphs)`` paragraphs — so two seeds
give different rows but the same amount of work.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

#: above this many words a paragraph is "large" (rule I1's threshold)
LARGE_THRESHOLD = 40
#: share of paragraphs containing each term of a tier
TERM_SHARES = {"rare": 0.002, "mid": 0.02, "common": 0.10}
TERMS = {tier: [f"{tier}{i}x" for i in range(6)] for tier in TERM_SHARES}
HONOURS_GPA = 3.5


class Fingerprint:
    """Row counts per class plus a CRC-32 over every loaded value."""

    def __init__(self) -> None:
        self.rows: Counter = Counter()
        self.crc = 0

    def add(self, class_name: str, *values: Any) -> None:
        self.rows[class_name] += 1
        self.crc = zlib.crc32(repr(values).encode("utf-8"), self.crc)

    def summary(self) -> dict:
        return {"rows": dict(sorted(self.rows.items())),
                "crc32": f"{self.crc:08x}"}


@dataclass
class DocumentData:
    """Plain records of a Document/Section/Paragraph dataset.

    Paragraph ``p`` (0-based) belongs to section ``p // paragraphs_per_section``
    and document ``p // (sections_per_doc * paragraphs_per_section)``.
    """

    n_docs: int
    sections_per_doc: int
    paragraphs_per_section: int
    titles: list[str]
    authors: list[str]
    contents: list[str]
    large: set[int] = field(default_factory=set)

    @property
    def paragraphs_per_doc(self) -> int:
        return self.sections_per_doc * self.paragraphs_per_section

    @property
    def n_paragraphs(self) -> int:
        return self.n_docs * self.paragraphs_per_doc

    def doc_of(self, paragraph: int) -> int:
        return paragraph // self.paragraphs_per_doc

    def number_of(self, paragraph: int) -> int:
        return paragraph % self.paragraphs_per_section + 1


def generate_documents(rng: random.Random, n_docs: int,
                       sections_per_doc: int = 4,
                       paragraphs_per_section: int = 5,
                       docs_per_title: int = 10,
                       docs_per_author: int = 8) -> DocumentData:
    """Documents whose titles/authors are shared by fixed-size groups and
    whose paragraphs carry the controlled terms at exact shares."""
    n_paragraphs = n_docs * sections_per_doc * paragraphs_per_section
    vocabulary = [f"w{i:04d}" for i in range(800)]
    large = set(rng.sample(range(n_paragraphs), round(n_paragraphs * 0.03)))
    words: list[list[str]] = []
    for p in range(n_paragraphs):
        count = LARGE_THRESHOLD + 5 + rng.randrange(20) if p in large else 18
        # squaring a uniform sample favours low ranks (Zipf-like)
        words.append([vocabulary[int(rng.random() ** 2 * 800)]
                      for _ in range(count)])
    for tier, terms in TERMS.items():
        for term in terms:
            for p in rng.sample(range(n_paragraphs),
                                max(1, round(n_paragraphs * TERM_SHARES[tier]))):
                words[p].insert(rng.randrange(len(words[p]) + 1), term)
    title_slots = [i % max(1, n_docs // docs_per_title) for i in range(n_docs)]
    author_slots = [i % max(1, n_docs // docs_per_author) for i in range(n_docs)]
    rng.shuffle(title_slots)
    rng.shuffle(author_slots)
    return DocumentData(
        n_docs=n_docs, sections_per_doc=sections_per_doc,
        paragraphs_per_section=paragraphs_per_section,
        titles=[f"Title {slot:04d}" for slot in title_slots],
        authors=[f"Author {slot:03d}" for slot in author_slots],
        contents=[" ".join(ws) for ws in words],
        large=large)


def load_documents(database, data: DocumentData, fingerprint: Fingerprint):
    """Load *data* into a ``document_schema()`` database, keeping the inverse
    links and ``largeParagraphs`` consistent; returns the paragraph OIDs."""
    spd, pps, ppd = (data.sections_per_doc, data.paragraphs_per_section,
                     data.paragraphs_per_doc)
    for d in range(data.n_docs):
        fingerprint.add("Document", data.titles[d], data.authors[d])
    docs = database.create_many("Document", (
        {"title": data.titles[d], "author": data.authors[d],
         "sections": set(), "largeParagraphs": set()}
        for d in range(data.n_docs)))
    for s in range(data.n_docs * spd):
        fingerprint.add("Section", s % spd + 1, s // spd)
    sections = database.create_many("Section", (
        {"number": s % spd + 1, "title": f"Section {s % spd + 1}",
         "document": docs[s // spd], "paragraphs": set()}
        for s in range(data.n_docs * spd)))
    for p, content in enumerate(data.contents):
        fingerprint.add("Paragraph", data.number_of(p), p // pps, content)
    paragraphs = database.create_many("Paragraph", (
        {"number": data.number_of(p), "section": sections[p // pps],
         "content": content}
        for p, content in enumerate(data.contents)))
    for s, section in enumerate(sections):
        database.update(section, paragraphs=set(paragraphs[s * pps:(s + 1) * pps]))
    for d, doc in enumerate(docs):
        database.update(
            doc, sections=set(sections[d * spd:(d + 1) * spd]),
            largeParagraphs={paragraphs[p] for p in range(d * ppd, (d + 1) * ppd)
                             if p in data.large})
    return paragraphs


@dataclass
class UniversityData:
    """Plain records of a Department/Course/Student dataset."""

    departments: list[str]
    #: (title, credits, department index)
    courses: list[tuple[str, int, int]]
    #: (name, gpa, department index, course indexes)
    students: list[tuple[str, float, int, tuple[int, ...]]]


def generate_university(rng: random.Random, n_departments: int = 5,
                        students_per_department: int = 40,
                        courses_per_department: int = 8) -> UniversityData:
    subjects = ["Databases", "Systems", "Theory", "Graphics", "Networks",
                "Logic", "Compilers", "Statistics"]
    departments = [f"Department of {subjects[d % len(subjects)]} {d}"
                   for d in range(n_departments)]
    courses = [(f"{subjects[c % len(subjects)]} {101 + c}",
                rng.choice([3, 4, 6]), d)
               for d in range(n_departments)
               for c in range(courses_per_department)]
    students = []
    for d in range(n_departments):
        own = range(d * courses_per_department, (d + 1) * courses_per_department)
        for s in range(students_per_department):
            students.append((f"Student {d}-{s}", round(rng.uniform(1.0, 4.0), 2),
                             d, tuple(sorted(rng.sample(own, 3)))))
    return UniversityData(departments, courses, students)


def load_university(database, data: UniversityData,
                    fingerprint: Fingerprint) -> None:
    """Load *data* into a ``university_schema()`` database with consistent
    inverse links (students, courses, participants, honoursStudents)."""
    for name in data.departments:
        fingerprint.add("Department", name)
    departments = database.create_many("Department", (
        {"name": name, "students": set(), "courses": set(),
         "honoursStudents": set()} for name in data.departments))
    for course in data.courses:
        fingerprint.add("Course", *course)
    courses = database.create_many("Course", (
        {"title": title, "credits": credits, "department": departments[d],
         "participants": set()} for title, credits, d in data.courses))
    for student in data.students:
        fingerprint.add("Student", *student)
    students = database.create_many("Student", (
        {"name": name, "gpa": gpa, "department": departments[d],
         "courses": {courses[c] for c in taken}}
        for name, gpa, d, taken in data.students))
    for c, course in enumerate(courses):
        database.update(course, participants={
            students[s] for s, (_, _, _, taken) in enumerate(data.students)
            if c in taken})
    for d, department in enumerate(departments):
        members = [s for s, row in enumerate(data.students) if row[2] == d]
        database.update(
            department,
            students={students[s] for s in members},
            courses={courses[c] for c, row in enumerate(data.courses) if row[2] == d},
            honoursStudents={students[s] for s in members
                             if data.students[s][1] >= HONOURS_GPA})
