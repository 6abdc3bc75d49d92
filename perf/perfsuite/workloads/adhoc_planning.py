"""``adhoc_planning`` — statements the caches have never seen."""

from __future__ import annotations

import repro
from repro.datamodel.database import Database
from repro.session import Session
from repro.workloads import (document_knowledge, document_schema,
                             university_knowledge, university_schema)

from perfsuite.datagen import (LARGE_THRESHOLD, TERMS, generate_documents,
                               generate_university, load_documents,
                               load_university)
from perfsuite.ops import Op, canonical
from perfsuite.workloads.base import WARM, Workload, mixed

DOCUMENTS, UNIVERSITY = 0, 1

#: (shape, database, statements per block of 200, text).  Placeholders:
#: ``{k}`` paragraph number, ``{sn}`` section number, ``{cr}`` credits,
#: ``{g}`` a gpa, ``{title} {author} {word} {term} {dept} {student}`` values
#: from the data, and the always-true ``{pu} {su} {cu} {gu} {u}`` bounds that
#: carry the statement's serial number, so that no text ever repeats.
#: First half: *literal churn* — a dozen plain shapes with inlined values, as
#: an ORM sends them.  Second half: structural variety — one to four range
#: variables, joins, dependent ranges, conjunct subsets, projections, and
#: the method predicates that fire rules E1-E5, I1, U1-U3.
#:
#: Planning cost on seed code spans three orders of magnitude and jumps with
#: every added conjunct (a serial number carried as a ``tag`` field of the
#: result costs less than one carried by an extra conjunct), so the counts
#: are chosen by cost tier: 1 statement of ~0.5 s (0.5 %), 2 of ~150 ms
#: (1 %), 6 of ~85 ms (3 %), a dozen of 25-35 ms, the rest below 15 ms.  The
#: 99th percentile then falls inside the 150 ms tier and the 98th inside the
#: 85 ms tier, neither on the edge between two tiers.
TEMPLATES = [
    ("churn_paragraph_number", DOCUMENTS, 9,
     "ACCESS p FROM p IN Paragraph WHERE p.number == {k} AND p.number <= {pu}"),
    ("churn_document_title", DOCUMENTS, 9,
     "ACCESS d FROM d IN Document WHERE d.title == '{title}' AND d.author != 'req-{u}'"),
    ("churn_titles_of_author", DOCUMENTS, 9,
     "ACCESS d.title FROM d IN Document WHERE d.author == '{author}' "
     "AND d.title != 'req-{u}'"),
    ("churn_section_number", DOCUMENTS, 8,
     "ACCESS s FROM s IN Section WHERE s.number == {sn} AND s.number <= {su}"),
    ("churn_paragraph_word", DOCUMENTS, 8,
     "ACCESS p.number FROM p IN Paragraph WHERE p->contains_string('{word}') "
     "AND p.number <= {pu}"),
    ("churn_section_titles", DOCUMENTS, 8,
     "ACCESS s.title FROM s IN Section WHERE s.number <= {su}"),
    ("churn_student_name", UNIVERSITY, 9,
     "ACCESS s FROM s IN Student WHERE s.name == '{student}' AND s.gpa <= {gu}"),
    ("churn_students_above", UNIVERSITY, 8,
     "ACCESS s.name FROM s IN Student WHERE s.gpa >= {g}"),
    ("churn_department_name", UNIVERSITY, 8,
     "ACCESS d FROM d IN Department WHERE d.name == '{dept}' AND d.name != 'req-{u}'"),
    ("churn_course_credits", UNIVERSITY, 8,
     "ACCESS c.title FROM c IN Course WHERE c.credits == {cr} AND c.credits <= {cu}"),
    ("churn_honours", UNIVERSITY, 8,
     "ACCESS s.name FROM s IN Student WHERE s->isHonours() AND s.gpa <= {gu}"),
    ("churn_department_students", UNIVERSITY, 8,
     "ACCESS s.name FROM d IN Department, s IN d.students "
     "WHERE d.name == '{dept}' AND s.gpa <= {gu}"),
    # ---- structural variety -------------------------------------------
    ("e5_contains", DOCUMENTS, 10,
     "ACCESS p FROM p IN Paragraph WHERE p->contains_string('{term}') "
     "AND p.number <= {pu}"),
    ("e5_contains_content", DOCUMENTS, 2,
     "ACCESS p.content FROM p IN Paragraph WHERE p->contains_string('{word}') "
     "AND p.number == {k} AND p.number <= {pu}"),
    ("e1_title_path", DOCUMENTS, 8,
     "ACCESS p FROM p IN Paragraph WHERE (p->document()).title == '{title}' "
     "AND p.number <= {pu}"),
    ("e1_title_path_tuple", DOCUMENTS, 2,
     "ACCESS [n: p.number, s: p.section] FROM p IN Paragraph "
     "WHERE (p->document()).title == '{title}' AND p.number <= {pu}"),
    ("motivating", DOCUMENTS, 2,
     "ACCESS p FROM p IN Paragraph WHERE p->contains_string('{term}') "
     "AND (p->document()).title == '{title}' AND p.number != {pu}"),
    ("i1_large", DOCUMENTS, 2,
     f"ACCESS p FROM p IN Paragraph WHERE p->wordCount() > {LARGE_THRESHOLD} "
     "AND p.number <= {pu}"),
    ("i1_large_number", DOCUMENTS, 2,
     "ACCESS [p: p, tag: {u}] FROM p IN Paragraph "
     f"WHERE p->wordCount() > {LARGE_THRESHOLD} AND p.number == {{k}}"),
    ("j1_same_document", DOCUMENTS, 2,
     "ACCESS [a: p.number, b: q.number, tag: {u}] "
     "FROM p IN Paragraph, q IN Paragraph "
     "WHERE p->sameDocument(q) AND p.number == {k}"),
    ("document_paragraphs", DOCUMENTS, 8,
     "ACCESS [t: d.title, ps: d->paragraphs()] FROM d IN Document "
     "WHERE d.author == '{author}' AND d.title != 'req-{u}'"),
    ("dependent_2", DOCUMENTS, 6,
     "ACCESS p.number FROM d IN Document, p IN d->paragraphs() "
     "WHERE d.title == '{title}' AND p.number <= {pu}"),
    ("dependent_2_contains", DOCUMENTS, 8,
     "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
     "WHERE p->contains_string('{term}') AND p.number <= {pu}"),
    ("dependent_3", DOCUMENTS, 6,
     "ACCESS p.number FROM d IN Document, s IN d.sections, p IN s.paragraphs "
     "WHERE d.title == '{title}' AND p.number <= {pu}"),
    ("dependent_4", DOCUMENTS, 2,
     "ACCESS [a: p.number, b: q.number] FROM d IN Document, s IN d.sections, "
     "p IN s.paragraphs, q IN s.paragraphs "
     "WHERE d.title == '{title}' AND p.number <= {pu}"),
    ("join_section_document", DOCUMENTS, 3,
     "ACCESS s.title FROM s IN Section, d IN Document "
     "WHERE s.document == d AND s.number <= {su}"),
    ("join_paragraph_section", DOCUMENTS, 3,
     "ACCESS [n: p.number, tag: {u}] FROM p IN Paragraph, s IN Section "
     "WHERE p.section == s AND s.number == {sn}"),
    ("join_paragraph_section_3", DOCUMENTS, 1,
     "ACCESS p.number FROM p IN Paragraph, s IN Section "
     "WHERE p.section == s AND s.number == {sn} AND p.number != {pu}"),
    ("u1_department_name", UNIVERSITY, 8,
     "ACCESS s.name FROM s IN Student WHERE s->departmentName() == '{dept}' "
     "AND s.gpa <= {gu}"),
    ("u2_honours_gpa", UNIVERSITY, 2,
     "ACCESS [n: s.name, g: s.gpa] FROM s IN Student WHERE s.gpa >= 3.5 "
     "AND s.gpa <= {gu}"),
    ("u3_find_by_name", UNIVERSITY, 8,
     "ACCESS d.courses FROM d IN Department WHERE d.name == '{dept}' "
     "AND d.name != 'req-{u}'"),
    ("dependent_3_university", UNIVERSITY, 8,
     "ACCESS [s: s.name, c: c.title] FROM d IN Department, s IN d.students, "
     "c IN s.courses WHERE d.name == '{dept}' AND s.gpa <= {g}"),
    ("dependent_4_university", UNIVERSITY, 2,
     "ACCESS [s: s.name, c: c.title, t: t.name] FROM d IN Department, "
     "s IN d.students, c IN s.courses, t IN c.participants "
     "WHERE d.name == '{dept}' AND s.gpa <= {g}"),
    ("join_course_department", UNIVERSITY, 3,
     "ACCESS [n: c.title, tag: {u}] FROM c IN Course, d IN Department "
     "WHERE c.department == d AND d.name == '{dept}'"),
    ("join_course_department_3", UNIVERSITY, 1,
     "ACCESS c.title FROM c IN Course, d IN Department "
     "WHERE c.department == d AND d.name == '{dept}' AND c.credits != {cu}"),
    # three relations: the join-order enumerator's dynamic programme runs
    ("join_star_3", UNIVERSITY, 1,
     "ACCESS [n: s.name, tag: {u}] FROM s IN Student, c IN Course, d IN Department "
     "WHERE s.department == d AND c.department == d"),
]
assert sum(count for _, _, count, _ in TEMPLATES) == 200

#: share of statements checked against the naive plan after the timed phase
ORACLE_SHARE = 0.10
#: statements of each cheap shape in the warm-up block
WARM_REPEATS = 4


class AdhocPlanning(Workload):
    """Small data, so execution is a small part of a statement; every text
    is new, so every statement is parsed, analyzed, translated, optimized
    and compiled."""

    name = "adhoc_planning"
    why = ("no statement text repeats and live shapes exceed the 256-plan cache and "
           "1 024-statement LRU: vql, algebra, optimizer and compiler do the work")

    def setup(self) -> None:
        rng = self.rng("data")
        self.documents = generate_documents(rng, 6 if self.smoke else 20)
        self.university = generate_university(
            rng, students_per_department=8 if self.smoke else 40)
        self.databases = [Database(document_schema(), name="adhoc-documents"),
                          Database(university_schema(), name="adhoc-university")]
        load_documents(self.databases[DOCUMENTS], self.documents, self.fingerprint)
        load_university(self.databases[UNIVERSITY], self.university, self.fingerprint)
        self.databases[DOCUMENTS].create_hash_index("Document", "title")
        self.databases[DOCUMENTS].create_text_index("Paragraph", "content")
        self.databases[UNIVERSITY].create_hash_index("Department", "name")
        self.knowledge = [document_knowledge(self.databases[DOCUMENTS].schema,
                                             LARGE_THRESHOLD),
                          university_knowledge(self.databases[UNIVERSITY].schema)]
        self.connections = []
        for database, knowledge in zip(self.databases, self.knowledge):
            connection = repro.connect(database, knowledge=knowledge,
                                       durability="memory", parallelism=1,
                                       tracing=False)
            connection.execute("ANALYZE")
            self.connections.append(connection)
        self.templates = {shape: (target, text)
                          for shape, target, _, text in TEMPLATES}
        # one of each shape of the cheap tiers (the tiers above 50 ms a
        # statement all have counts below three): the smoke mix.  The warm-up
        # block is four of each — nothing it runs is reused, it warms the
        # interpreter and makes ``setup_s`` long enough to read steadily
        light_mix = {shape: 1 for shape, _, count, _ in TEMPLATES if count >= 3}
        self.mix = (light_mix if self.smoke else
                    {shape: count for shape, _, count, _ in TEMPLATES})
        self.warm_mix = (light_mix if self.smoke else
                         {shape: WARM_REPEATS for shape in light_mix})
        self.block_size = sum(self.mix.values())
        # serial numbers: the warm-up block takes the first block_size
        assert sum(self.warm_mix.values()) <= self.block_size
        self.pools = {
            "title": sorted(set(self.documents.titles)),
            "author": sorted(set(self.documents.authors)),
            "word": [f"w{i:04d}" for i in range(0, 800, 7)],
            "term": TERMS["common"] + TERMS["mid"],
            "dept": self.university.departments,
            "student": [row[0] for row in self.university.students],
        }
        #: (op, rows) of the statements picked for the naive-plan check
        self.sampled: list[tuple[Op, list]] = []

    def block(self, index: int) -> list[Op]:
        rng = self.rng(index)
        shapes = mixed(rng, self.warm_mix if index == WARM else self.mix)
        ops = []
        for position, shape in enumerate(shapes):
            # serial number of the statement in the run: warm-up block first
            u = (index + 1) * self.block_size + position
            target, text = self.templates[shape]
            sql = text.format(
                k=rng.randrange(1, 6), sn=rng.randrange(1, 5),
                cr=rng.choice((3, 4, 6)), g=f"{rng.uniform(1.5, 3.9):.2f}{u:05d}",
                pu=5 + u, su=4 + u, cu=6 + u, gu=f"4.{u:05d}", u=u,
                **{name: rng.choice(pool) for name, pool in self.pools.items()})
            ops.append(Op(shape, "read", sql, target=target,
                          data=rng.random() < ORACLE_SHARE))
        return ops

    def run(self, op: Op) -> tuple[float, bool]:
        seconds, rows = self.read(op)
        if op.data:
            self.sampled.append((op, rows))
        return seconds, True

    def finish(self) -> tuple[int, int, dict]:
        """Check the sampled statements against ``Session.execute_naive``:
        the canonical plan lowered one to one, no optimizer involved."""
        sessions = [Session(database, knowledge=knowledge, parallelism=1)
                    for database, knowledge in zip(self.databases, self.knowledge)]
        failed = 0
        for op, rows in self.sampled:
            naive = sessions[op.target].execute_naive(op.sql).values
            failed += ({canonical(row) for row in rows}
                       != {canonical(row) for row in naive}
                       or len(rows) != len(naive))
        attempted = len(self.sampled)
        self.sampled = []
        return attempted, failed, {}

