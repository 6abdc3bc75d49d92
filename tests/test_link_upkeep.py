"""Inverse-link upkeep in the data model, and the rules that rely on it.

Every write keeps both sides of each declared inverse link consistent
(``Database.create``/``create_many``/``update``/``delete``/``delete_many``),
in the writer's commit scope, undo log and WAL record.  The optimizer's
E3/E4 equivalences and the dependent-range inversion
(:mod:`repro.optimizer.inversion`) are only sound because of it; the tests
here write through the public front end and compare every optimized answer
with the naive plan's.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import connect
from repro.datamodel.database import Database
from repro.datamodel.oid import is_collection
from repro.errors import TypeMismatchError
from repro.optimizer.knowledge import SchemaKnowledge
from repro.physical.evaluator import make_hashable
from repro.physical.plans import ExpressionSetScan, HashJoin, walk_physical
from repro.session import Session
from repro.workloads import (
    document_knowledge,
    document_schema,
    generate_document_database,
    generate_university_database,
    university_knowledge,
)
from repro.workloads.documents import TARGET_TITLE
from repro.workloads.queries import (
    dependent_range_query,
    large_paragraph_query,
    motivating_query,
    same_document_join_query,
    title_only_query,
    tuple_access_query,
)


def multiset(values) -> Counter:
    return Counter(make_hashable(value) for value in values)


def members(value) -> set:
    if value is None:
        return set()
    if is_collection(value):
        return set(value)
    return {value}


def assert_links_consistent(database: Database) -> None:
    """Both sides of every declared link agree, and no side references a
    deleted object."""
    for link in database.schema.inverse_links:
        for side in (link, link.reversed()):
            for oid in database.extension(side.source_class):
                for target in members(database.value(oid, side.source_property)):
                    assert database.exists(target), (oid, side, target)
                    back = members(database.value(target, side.target_property))
                    assert oid in back, (oid, side.source_property, target)


def link_state(database: Database) -> dict:
    """Every object's link-property values (sets frozen), for comparisons."""
    state = {}
    for link in database.schema.inverse_links:
        for side in (link, link.reversed()):
            for oid in database.extension(side.source_class):
                value = database.value(oid, side.source_property)
                state[oid, side.source_property] = make_hashable(value)
    return state


# ----------------------------------------------------------------------
# the upkeep itself
# ----------------------------------------------------------------------
class TestUpkeep:
    def test_create_joins_the_other_side(self):
        database = Database(document_schema())
        document = database.create("Document", title="t", sections=set())
        section = database.create("Section", number=1, document=document)
        assert database.value(document, "sections") == {section}
        paragraphs = database.create_many("Paragraph", [
            {"number": n, "section": section} for n in range(3)])
        assert database.value(section, "paragraphs") == set(paragraphs)
        assert_links_consistent(database)

    def test_create_many_writes_each_target_once(self):
        database = Database(document_schema())
        document = database.create("Document", title="t", sections=set())
        sections = database.create_many("Section", [
            {"number": n, "document": document, "paragraphs": set()}
            for n in range(2)])
        writes = database.statistics.property_writes
        database.create_many("Paragraph", [
            {"number": n, "section": sections[n % 2]} for n in range(10)])
        assert database.statistics.property_writes - writes == 2

    def test_update_of_the_single_valued_side_moves_the_object(self):
        database = generate_document_database(n_documents=2)
        paragraph = database.extension("Paragraph")[0]
        old = database.value(paragraph, "section")
        new = database.extension("Section")[-1]
        database.update(paragraph, section=new)
        assert paragraph not in database.value(old, "paragraphs")
        assert paragraph in database.value(new, "paragraphs")
        assert_links_consistent(database)

    def test_update_of_the_set_valued_side_moves_the_objects(self):
        database = generate_document_database(n_documents=2)
        first, last = database.extension("Section")[0], \
            database.extension("Section")[-1]
        moved = sorted(database.value(first, "paragraphs"))[:2]
        database.update(last, paragraphs=set(database.value(last, "paragraphs"))
                        | set(moved))
        for paragraph in moved:
            assert database.value(paragraph, "section") == last
            assert paragraph not in database.value(first, "paragraphs")
        # taking an object off the set-valued side clears its reference
        database.update(last, paragraphs=set(database.value(last, "paragraphs"))
                        - {moved[0]})
        assert database.value(moved[0], "section") is None
        assert_links_consistent(database)

    def test_a_write_that_agrees_writes_nothing_else(self):
        database = generate_document_database(n_documents=2)
        section = database.extension("Section")[0]
        writes = database.statistics.property_writes
        database.update(section,
                        paragraphs=set(database.value(section, "paragraphs")))
        assert database.statistics.property_writes - writes == 1

    def test_delete_leaves_the_other_side(self):
        database = generate_document_database(n_documents=2)
        section = database.extension("Section")[0]
        document = database.value(section, "document")
        paragraphs = database.value(section, "paragraphs")
        database.delete(section)
        assert section not in database.value(document, "sections")
        assert all(database.value(p, "section") is None for p in paragraphs)
        database.delete_many(list(paragraphs)[:2] + [document])
        assert_links_consistent(database)

    def test_an_aborted_scope_takes_the_upkeep_back(self):
        database = generate_document_database(n_documents=2)
        before = link_state(database)
        data_version = database.versions.data
        paragraph = database.extension("Paragraph")[0]
        with pytest.raises(TypeMismatchError):
            with database.commit_scope():
                database.update(paragraph,
                                section=database.extension("Section")[-1])
                database.update(paragraph, number="not a number")
        assert link_state(database) == before
        assert database.versions.data == data_version

    def test_an_upkeep_write_ticks_no_extra_data_version(self):
        database = generate_document_database(n_documents=2)
        before = database.versions.data
        database.update(database.extension("Paragraph")[0],
                        section=database.extension("Section")[-1])
        assert database.versions.data == before + 1

    def test_snapshot_readers_see_the_other_side_as_of_their_pin(self):
        database = generate_document_database(n_documents=2)
        paragraph = database.extension("Paragraph")[0]
        old = database.value(paragraph, "section")
        with database.snapshot_scope() as ts:
            database.update(paragraph, section=database.extension("Section")[-1])
            assert paragraph in database.value_at(old, "paragraphs", ts)
        assert paragraph not in database.value(old, "paragraphs")

    def test_loaders_fill_no_inverse_side_by_hand(self):
        assert_links_consistent(generate_document_database(n_documents=3))
        assert_links_consistent(generate_university_database(n_departments=2))


# ----------------------------------------------------------------------
# E3/E4 under writes: the reproduction, through the public front end
# ----------------------------------------------------------------------
def test_e3_e4_hold_after_moving_paragraphs_between_documents():
    """Six documents; 24 paragraphs numbered 1 move to a section of the
    target document.  Q-title (planned through E1-E4 as an index lookup
    followed by ``sections.paragraphs``) must see the 20 it had plus the
    20 that arrived — 40 rows, as the naive plan does."""
    database = generate_document_database(n_documents=6)
    knowledge = document_knowledge(database.schema)
    connection = connect(database, knowledge=knowledge)
    target = next(d for d in database.extension("Document")
                  if database.value(d, "title") == TARGET_TITLE)
    section = sorted(database.value(target, "sections"))[0]
    cursor = connection.execute(
        "UPDATE Paragraph p SET section = :s WHERE p.number == 1",
        {"s": section})
    assert cursor.rowcount == 24
    text = title_only_query().text
    assert "sections.paragraphs" in connection.explain(text)
    rows = connection.execute(text).fetchall()
    naive = Session(database, knowledge=knowledge).execute_naive(text).values
    assert len(rows) == 40
    assert multiset(rows) == multiset(naive)
    connection.close()


# ----------------------------------------------------------------------
# DML interleaved with the paper's queries, optimized against naive
# ----------------------------------------------------------------------
DOCUMENT_QUERIES = [query.text for query in (
    title_only_query(), motivating_query(), dependent_range_query(),
    tuple_access_query())]

UNIVERSITY_QUERIES = [
    "ACCESS s.name FROM s IN Student WHERE s->departmentName() == :dept",
    "ACCESS [s: s.name, d: d.name] FROM d IN Department, s IN d.students "
    "WHERE s.gpa >= 2.0",
    "ACCESS c.title FROM d IN Department, c IN d.courses WHERE c.credits == 4",
    "ACCESS [d: d.name, s: s.name] FROM d IN Department, "
    "s IN d->enrolledStudents()",
    "ACCESS [n: s.name] FROM s IN Student, d IN Department "
    "WHERE s.department == d AND d.name == :dept",
]


def _document_write(rng: random.Random, connection, database) -> None:
    paragraphs = database.extension("Paragraph")
    sections = database.extension("Section")
    documents = database.extension("Document")
    kind = rng.choice(("paragraph.section", "section.document",
                       "section.paragraphs", "document.sections",
                       "insert.paragraph", "insert.section",
                       "delete.paragraph", "delete.section",
                       "delete.document"))
    if kind == "paragraph.section" and paragraphs:
        connection.execute("UPDATE Paragraph p SET section = :s WHERE p == :p",
                           {"s": rng.choice(sections + [None]),
                            "p": rng.choice(paragraphs)})
    elif kind == "section.document" and sections:
        connection.execute("UPDATE Section s SET document = :d WHERE s == :s",
                           {"d": rng.choice(documents), "s": rng.choice(sections)})
    elif kind == "section.paragraphs" and sections:
        chosen = set(rng.sample(paragraphs, min(len(paragraphs), 3)))
        connection.execute("UPDATE Section s SET paragraphs = :ps WHERE s == :s",
                           {"ps": chosen, "s": rng.choice(sections)})
    elif kind == "document.sections" and documents:
        chosen = set(rng.sample(sections, min(len(sections), 2)))
        connection.execute("UPDATE Document d SET sections = :ss WHERE d == :d",
                           {"ss": chosen, "d": rng.choice(documents)})
    elif kind == "insert.paragraph" and sections:
        connection.executemany(
            "INSERT INTO Paragraph (number, section, content) "
            "VALUES (:n, :s, :c)",
            [{"n": rng.randint(1, 5), "s": rng.choice(sections),
              "c": rng.choice(("word0003 Implementation", "word0005"))}
             for _ in range(rng.randint(1, 3))])
    elif kind == "insert.section" and documents:
        connection.execute(
            "INSERT INTO Section (number, title, document, paragraphs) "
            "VALUES (:n, 'inserted', :d, :ps)",
            {"n": rng.randint(1, 5), "d": rng.choice(documents),
             "ps": set(rng.sample(paragraphs, min(len(paragraphs), 2)))})
    elif kind.startswith("delete."):
        class_name = kind.split(".")[1].capitalize()
        extension = database.extension(class_name)
        if len(extension) > 1:
            connection.execute(
                f"DELETE FROM {class_name} x WHERE x == :x",
                {"x": rng.choice(extension)})


def _university_write(rng: random.Random, connection, database) -> None:
    students = database.extension("Student")
    courses = database.extension("Course")
    departments = database.extension("Department")
    kind = rng.choice(("student.department", "course.department",
                       "department.students", "department.courses",
                       "insert.student", "insert.course",
                       "delete.student", "delete.course",
                       "delete.department"))
    if kind == "student.department" and students:
        connection.execute("UPDATE Student s SET department = :d WHERE s == :s",
                           {"d": rng.choice(departments),
                            "s": rng.choice(students)})
    elif kind == "course.department" and courses:
        connection.execute("UPDATE Course c SET department = :d WHERE c == :c",
                           {"d": rng.choice(departments), "c": rng.choice(courses)})
    elif kind == "department.students":
        chosen = set(rng.sample(students, min(len(students), 4)))
        connection.execute("UPDATE Department d SET students = :ss WHERE d == :d",
                           {"ss": chosen, "d": rng.choice(departments)})
    elif kind == "department.courses":
        chosen = set(rng.sample(courses, min(len(courses), 2)))
        connection.execute("UPDATE Department d SET courses = :cs WHERE d == :d",
                           {"cs": chosen, "d": rng.choice(departments)})
    elif kind == "insert.student":
        chosen = set(rng.sample(courses, min(len(courses), 2)))
        cursor = connection.execute(
            "INSERT INTO Student (name, gpa, department, courses) "
            "VALUES (:n, :g, :d, :cs)",
            {"n": f"new {rng.random():.6f}", "g": round(rng.uniform(1, 4), 2),
             "d": rng.choice(departments), "cs": chosen})
        for course in chosen:
            connection.execute(
                "UPDATE Course x SET participants = :v WHERE x == :x",
                {"v": set(database.value(course, "participants"))
                 | {cursor.lastoid}, "x": course})
    elif kind == "insert.course":
        connection.execute(
            "INSERT INTO Course (title, credits, department, participants) "
            "VALUES ('new course', :c, :d, :ps)",
            {"c": rng.choice((3, 4, 6)), "d": rng.choice(departments),
             "ps": set()})
    elif kind.startswith("delete."):
        class_name = kind.split(".")[1].capitalize()
        extension = database.extension(class_name)
        if len(extension) > 1:
            victim = rng.choice(extension)
            # Student.courses and Course.participants are not a declared
            # link: the application keeps that pair, as the loader does
            pair = {"Student": ("courses", "Course", "participants"),
                    "Course": ("participants", "Student", "courses")}
            if class_name in pair:
                prop, other, back = pair[class_name]
                for oid in database.value(victim, prop) or ():
                    connection.execute(
                        f"UPDATE {other} x SET {back} = :v WHERE x == :x",
                        {"v": set(database.value(oid, back)) - {victim},
                         "x": oid})
            connection.execute(
                f"DELETE FROM {class_name} x WHERE x == :x", {"x": victim})


@pytest.mark.parametrize("seed", (2, 23, 61))
def test_document_dml_keeps_optimized_answers_equal_to_naive(seed):
    rng = random.Random(seed)
    database = generate_document_database(n_documents=4, seed=seed)
    database.analyze()
    knowledge = document_knowledge(database.schema)
    connection = connect(database, knowledge=knowledge)
    session = Session(database, knowledge=knowledge)
    for _ in range(14):
        _document_write(rng, connection, database)
        assert_links_consistent(database)
        for text in DOCUMENT_QUERIES:
            assert multiset(connection.execute(text).fetchall()) == \
                multiset(session.execute_naive(text).values), text
    connection.close()


@pytest.mark.parametrize("seed", (5, 41))
def test_university_dml_keeps_optimized_answers_equal_to_naive(seed):
    rng = random.Random(seed)
    database = generate_university_database(
        n_departments=3, students_per_department=8, seed=seed)
    database.analyze()
    knowledge = university_knowledge(database.schema)
    connection = connect(database, knowledge=knowledge)
    session = Session(database, knowledge=knowledge)
    for _ in range(14):
        _university_write(rng, connection, database)
        assert_links_consistent(database)
        departments = database.extension("Department")
        name = database.value(rng.choice(departments), "name")
        for text in UNIVERSITY_QUERIES:
            parameters = {"dept": name} if ":dept" in text else None
            assert multiset(connection.execute(text, parameters).fetchall()) \
                == multiset(session.execute_naive(
                    text, parameters=parameters).values), text
    connection.close()


# ----------------------------------------------------------------------
# durability: recovery re-derives the same links
# ----------------------------------------------------------------------
def test_wal_recovery_reaches_the_same_links(tmp_path):
    def open_connection():
        return connect(Database(document_schema()), durability="wal",
                       storage_path=str(tmp_path), wal_fsync="never")

    connection = open_connection()
    database = connection.database
    documents = database.create_many("Document", [
        {"title": f"d{n}", "sections": set()} for n in range(2)])
    sections = database.create_many("Section", [
        {"number": n, "document": documents[n % 2]} for n in range(4)])
    paragraphs = database.create_many("Paragraph", [
        {"number": n, "section": sections[n % 4]} for n in range(12)])
    database.storage.checkpoint()  # recovery: a checkpoint plus a tail
    connection.execute("UPDATE Paragraph p SET section = :s WHERE p.number < 3",
                       {"s": sections[3]})
    database.update(sections[0], paragraphs={paragraphs[4], paragraphs[5]})
    database.update(documents[1], sections={sections[0], sections[1]})
    connection.execute("DELETE FROM Section s WHERE s == :s", {"s": sections[2]})
    assert_links_consistent(database)
    before = link_state(database)
    connection.close()
    database.close()

    reopened = open_connection()
    assert link_state(reopened.database) == before
    assert_links_consistent(reopened.database)
    reopened.close()
    reopened.database.close()


# ----------------------------------------------------------------------
# the rules that use the links
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def analyzed_documents():
    database = generate_document_database(n_documents=40)
    database.create_hash_index("Paragraph", "number")
    database.analyze()
    return database, document_knowledge(database.schema)


def test_method_bodies_declare_their_paths():
    knowledge = document_knowledge(document_schema())
    names = [item.name for item in knowledge.items()]
    assert "method-body[Document.paragraphs]" in names
    # E1 and J1 are Paragraph.document()'s and .sameDocument()'s bodies:
    # the hand-written declarations stand for them
    assert "method-body[Paragraph.document]" not in names
    assert "method-body[Paragraph.sameDocument]" not in names
    assert "E1-path-method" in names and "J1-same-document" in names
    # without them, the method bodies declare E1 and J1 themselves
    derived = SchemaKnowledge(document_schema()).derive_from_method_bodies()
    assert {item.name: str(item.right) for item in derived.items()} == {
        "method-body[Document.paragraphs]": "x.sections.paragraphs",
        "method-body[Paragraph.document]": "x.section.document",
        "method-body[Paragraph.sameDocument]":
            "(x->document() == y->document())"}


def test_dependent_range_inverts_onto_the_text_index(analyzed_documents):
    database, knowledge = analyzed_documents
    session = Session(database, knowledge=knowledge)
    text = dependent_range_query().text
    result = session.execute(text)
    scans = [node for node in walk_physical(result.physical_plan)
             if isinstance(node, ExpressionSetScan)]
    assert scans and "retrieve_by_string" in str(scans[0].expression)
    assert "INTERSECT Document" in session.explain(text)
    assert multiset(result.values) == multiset(session.execute_naive(text).values)


def test_large_paragraphs_range_over_the_precomputed_sets(analyzed_documents):
    database, knowledge = analyzed_documents
    session = Session(database, knowledge=knowledge)
    text = large_paragraph_query().text
    report = session.explain(text)
    assert "INTERSECT Paragraph" in report
    assert "class_scan<p, Paragraph>" not in report
    optimized = session.execute(text)
    naive = session.execute_naive(text)
    assert multiset(optimized.values) == multiset(naive.values)
    assert optimized.work["method_calls"] < naive.work["method_calls"]


def test_a_deleted_large_paragraph_is_dropped_before_it_is_read():
    """largeParagraphs is derived and not maintained: a deleted paragraph
    stays in it.  The membership form's class check drops it before
    ``p.section.document`` reads the deleted object."""
    database = generate_document_database(n_documents=20)
    database.analyze()
    knowledge = document_knowledge(database.schema)
    large = [p for d in database.extension("Document")
             for p in database.value(d, "largeParagraphs")]
    assert large
    database.delete(large[0])
    session = Session(database, knowledge=knowledge)
    text = large_paragraph_query().text
    assert "INTERSECT Paragraph" in session.explain(text)
    optimized = session.execute(text).values
    assert large[0] not in optimized
    assert multiset(optimized) == multiset(session.execute_naive(text).values)


def test_same_document_keeps_its_hash_join(analyzed_documents):
    database, knowledge = analyzed_documents
    session = Session(database, knowledge=knowledge)
    text = same_document_join_query().text + " AND p.number == 2"
    plan = session.execute(text).physical_plan
    assert any(isinstance(node, HashJoin) for node in walk_physical(plan))
