"""A second application schema (university) for generality tests.

The paper argues its techniques are schema-independent: the optimizer
generator produces an individual optimizer for *any* schema from its
knowledge.  This module provides a second, structurally different schema —
students, courses and departments — with its own path methods, inverse links,
index-backed class method and query↔method equivalence, so tests and examples
can demonstrate the machinery outside the document domain.
"""

from __future__ import annotations

import random

from repro.datamodel.database import Database
from repro.datamodel.methods import (
    collect_over_property,
    index_lookup_method,
    path_method,
    python_method,
)
from repro.datamodel.schema import (
    ClassDef,
    InverseLink,
    MethodDef,
    MethodKind,
    PropertyDef,
    Schema,
)
from repro.datamodel.types import BOOL, INT, REAL, STRING, object_type, set_of
from repro.optimizer.knowledge import (
    ConditionImplication,
    ExpressionEquivalence,
    QueryMethodEquivalence,
    SchemaKnowledge,
)

__all__ = [
    "university_schema",
    "university_knowledge",
    "generate_university_database",
]

HONOURS_GPA = 3.5


def _is_honours_impl(ctx, receiver):
    """Implementation of ``Student.isHonours()``: gpa above the threshold."""
    gpa = ctx.value(receiver, "gpa")
    return gpa is not None and gpa >= HONOURS_GPA


def university_schema() -> Schema:
    """Departments, students and courses with path methods and inverse links."""
    schema = Schema("university")

    department = ClassDef("Department")
    department.add_property(PropertyDef("name", STRING))
    department.add_property(PropertyDef(
        "students", set_of(object_type("Student")), target_class="Student"))
    department.add_property(PropertyDef(
        "courses", set_of(object_type("Course")), target_class="Course"))
    department.add_property(PropertyDef(
        "honoursStudents", set_of(object_type("Student")),
        target_class="Student", derived=True))
    department.add_method(MethodDef(
        name="find_by_name",
        params=(("n", STRING),),
        return_type=set_of(object_type("Department")),
        kind=MethodKind.EXTERNAL,
        class_level=True,
        implementation=index_lookup_method("Department", "name"),
        cost_per_call=4.0,
        result_cardinality_hint=1,
        description="departments with the given name, via an index"))
    department.add_method(MethodDef(
        name="enrolledStudents",
        return_type=set_of(object_type("Student")),
        kind=MethodKind.INTERNAL,
        implementation=collect_over_property("courses", "participants"),
        cost_per_call=3.0,
        description="students participating in any course of the department"))
    schema.add_class(department)

    course = ClassDef("Course")
    course.add_property(PropertyDef("title", STRING))
    course.add_property(PropertyDef("credits", INT))
    course.add_property(PropertyDef(
        "department", object_type("Department"), target_class="Department"))
    course.add_property(PropertyDef(
        "participants", set_of(object_type("Student")), target_class="Student"))
    schema.add_class(course)

    student = ClassDef("Student")
    student.add_property(PropertyDef("name", STRING))
    student.add_property(PropertyDef("gpa", REAL))
    student.add_property(PropertyDef(
        "department", object_type("Department"), target_class="Department"))
    student.add_property(PropertyDef(
        "courses", set_of(object_type("Course")), target_class="Course"))
    student.add_method(MethodDef(
        name="departmentName",
        return_type=STRING,
        kind=MethodKind.INTERNAL,
        implementation=path_method("department", "name"),
        cost_per_call=1.0,
        description="RETURN department.name"))
    student.add_method(MethodDef(
        name="isHonours",
        return_type=BOOL,
        kind=MethodKind.INTERNAL,
        implementation=python_method(_is_honours_impl, name="isHonours"),
        cost_per_call=6.0,
        description="gpa above the honours threshold"))
    schema.add_class(student)

    schema.add_inverse_link(InverseLink(
        source_class="Student", source_property="department",
        target_class="Department", target_property="students",
        source_cardinality="one", target_cardinality="many"))
    schema.add_inverse_link(InverseLink(
        source_class="Course", source_property="department",
        target_class="Department", target_property="courses",
        source_cardinality="one", target_cardinality="many"))

    schema.validate()
    return schema


def university_knowledge(schema: Schema) -> SchemaKnowledge:
    """Semantic knowledge for the university schema."""
    knowledge = SchemaKnowledge(schema)
    knowledge.add(ExpressionEquivalence(
        class_name="Student", variable="s",
        left="s->departmentName()", right="s.department.name",
        name="U1-department-name"))
    knowledge.derive_from_inverse_links()
    knowledge.add(ConditionImplication(
        class_name="Student", variable="s",
        antecedent=f"s.gpa >= {HONOURS_GPA}",
        consequent="s IS-IN s.department.honoursStudents",
        name="U2-honours-precomputed"))
    knowledge.add(QueryMethodEquivalence(
        query="ACCESS d FROM d IN Department WHERE d.name == n",
        method_call="Department->find_by_name(n)",
        name="U3-find-by-name"))
    knowledge.derive_from_method_bodies()
    knowledge.derive_range_inversions()
    return knowledge


def generate_university_database(n_departments: int = 5,
                                 students_per_department: int = 40,
                                 courses_per_department: int = 8,
                                 courses_per_student: int = 3,
                                 seed: int = 7) -> Database:
    """Generate a small university database with consistent inverse links."""
    rng = random.Random(seed)
    schema = university_schema()
    database = Database(schema, name=f"university[{n_departments}]")

    subjects = ["Databases", "Systems", "Theory", "Graphics", "Networks",
                "Logic", "Compilers", "Statistics"]

    for dep_index in range(n_departments):
        dep_name = f"Department of {subjects[dep_index % len(subjects)]} {dep_index}"
        dep_oid = database.create("Department", name=dep_name,
                                  students=set(), courses=set(),
                                  honoursStudents=set())

        course_oids = []
        for course_index in range(courses_per_department):
            course_oid = database.create(
                "Course",
                title=f"{subjects[course_index % len(subjects)]} {course_index + 101}",
                credits=rng.choice([3, 4, 6]),
                department=dep_oid,
                participants=set())
            course_oids.append(course_oid)

        honours = set()
        for student_index in range(students_per_department):
            gpa = round(rng.uniform(1.0, 4.0), 2)
            chosen = rng.sample(course_oids,
                                min(courses_per_student, len(course_oids)))
            student_oid = database.create(
                "Student",
                name=f"Student {dep_index}-{student_index}",
                gpa=gpa,
                department=dep_oid,
                courses=set(chosen))
            if gpa >= HONOURS_GPA:
                honours.add(student_oid)
            for course_oid in chosen:
                participants = database.value(course_oid, "participants")
                database.set_value(course_oid, "participants",
                                   participants | {student_oid})

        # Department.students and .courses were filled by the database's
        # inverse-link upkeep; honoursStudents is derived, the loader's.
        database.set_value(dep_oid, "honoursStudents", honours)

    database.create_hash_index("Department", "name")
    database.reset_statistics()
    return database
