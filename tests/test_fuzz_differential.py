"""Differential fuzzing: interpreter vs compiled engine vs prepared plans.

A seeded random VQL query generator produces selections, method calls,
joins and bind parameters over the document schema.  Every generated query
is executed by

* the reference **interpreter** on the naive physical plan (the oracle),
* the **compiled** pipelined engine on the naive and the optimized plans,
* the **prepared** executable (the service's compile-once path) and the
  interpreter on the optimized plan,

and all results must be identical row multisets.  Seeds are fixed, so CI
runs the same ~200 cases every time; set ``REPRO_FUZZ_CASES`` to fuzz a
larger space locally.
"""

from __future__ import annotations

import os
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import Parameter
from repro.algebra.operators import walk_operators
from repro.algebra.translate import translate_query
from repro.errors import ObjectNotFoundError
from repro.optimizer.builtin_rules import EAGER_COLUMN_MARK
from repro.physical.evaluator import make_hashable
from repro.physical.executor import execute_plan, prepare_plan
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.naive import naive_implementation
from repro.physical.plans import IndexRangeScan, walk_physical
from repro.session import Session
from repro.vql.lexer import tokenize
from repro.workloads import document_knowledge, generate_document_database

#: number of seeded cases run in CI (a case is one generated query)
N_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "200"))

TERMS = ("word0003", "word0005", "word0010", "Implementation", "zzz-missing")
TITLES = ("Query Optimization", "Document 1", "no such title")
NUMBERS = (0, 1, 2, 3, 5, 8)


# ----------------------------------------------------------------------
# query generator
# ----------------------------------------------------------------------
class QueryGenerator:
    """Generates random (query text, parameters) pairs over the document
    schema.  Conditions draw from selections, method calls, joins and
    bind parameters; every generated query is valid VQL."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.parameters: dict[str, object] = {}

    # -- literals / parameters ------------------------------------------
    def _value(self, value) -> str:
        """Render *value* as a literal or, sometimes, as a bind parameter."""
        if self.rng.random() < 0.25:
            name = f"p{len(self.parameters)}"
            self.parameters[name] = value
            return f":{name}"
        if isinstance(value, str):
            return f"'{value}'"
        return str(value)

    def _term(self) -> str:
        return self._value(self.rng.choice(TERMS))

    def _number(self) -> str:
        return self._value(self.rng.choice(NUMBERS))

    # -- conditions ------------------------------------------------------
    def _paragraph_atoms(self, var: str) -> list[str]:
        return [
            f"{var}.number == {self._number()}",
            f"{var}.number < {self._number()}",
            f"{var}.number >= {self._number()}",
            f"{var}->wordCount() > {self._number()}",
            f"{var}->contains_string({self._term()})",
            f"({var}->document()).title == {self._value(self.rng.choice(TITLES))}",
            f"{var} IS-IN Paragraph->retrieve_by_string({self._term()})",
        ]

    def _document_atoms(self, var: str) -> list[str]:
        return [
            f"{var}.title == {self._value(self.rng.choice(TITLES))}",
            f"{var} IS-IN Document->select_by_index({self._value(self.rng.choice(TITLES))})",
        ]

    def _section_atoms(self, var: str) -> list[str]:
        return [
            f"{var}.number == {self._number()}",
            f"{var}.number < {self._number()}",
        ]

    def _atoms(self, var: str, class_name: str) -> list[str]:
        return {
            "Paragraph": self._paragraph_atoms,
            "Document": self._document_atoms,
            "Section": self._section_atoms,
        }[class_name](var)

    def _condition(self, variables: list[tuple[str, str]]) -> str:
        atoms: list[str] = []
        for var, class_name in variables:
            atoms.extend(self._atoms(var, class_name))
        paragraph_vars = [var for var, cls in variables if cls == "Paragraph"]
        if len(paragraph_vars) >= 2:
            first, second = paragraph_vars[:2]
            atoms.append(f"{first}->sameDocument({second})")
            atoms.append(f"{first}->document() == {second}->document()")
        picked = self.rng.sample(atoms, k=min(self.rng.randint(1, 3), len(atoms)))
        rendered = picked[0]
        for atom in picked[1:]:
            connective = self.rng.choice(("AND", "AND", "OR"))
            rendered = f"({rendered}) {connective} ({atom})"
        if self.rng.random() < 0.15:
            rendered = f"NOT ({rendered})"
        return rendered

    # -- whole queries ---------------------------------------------------
    def generate(self) -> tuple[str, dict[str, object]]:
        self.parameters = {}
        shape = self.rng.random()
        if shape < 0.55:
            variables = [("p", "Paragraph")]
        elif shape < 0.7:
            variables = [(self.rng.choice(("d", "s")),
                          self.rng.choice(("Document", "Section")))]
            variables = [(variables[0][0],
                          "Document" if variables[0][0] == "d" else "Section")]
        elif shape < 0.9:
            variables = [("p", "Paragraph"), ("q", "Paragraph")]
        else:
            variables = [("p", "Paragraph"), ("d", "Document")]

        condition = self._condition(variables)
        if len(variables) == 1:
            var = variables[0][0]
            access = self.rng.choice((var, f"{var}.number")
                                     if variables[0][1] != "Document"
                                     else (var, f"{var}.title"))
        else:
            fields = ", ".join(
                f"f{i}: {var}.number" if cls != "Document" else f"f{i}: {var}.title"
                for i, (var, cls) in enumerate(variables))
            access = f"[{fields}]"
        ranges = ", ".join(f"{var} IN {cls}" for var, cls in variables)
        text = f"ACCESS {access} FROM {ranges} WHERE {condition}"
        return text, self._used_parameters(text)

    def _used_parameters(self, text: str) -> dict[str, object]:
        # atoms are generated eagerly but only sampled into the text, so
        # keep just the parameters the final query actually references
        return {name: value for name, value in self.parameters.items()
                if re.search(rf":{name}\b", text)}

    # -- parameterized ranges over a sorted-indexed property -------------
    def _bound(self, prop: str, op: str, value) -> str:
        """One range conjunct, mostly against a fresh bind parameter (the
        bound is only known at execution), sometimes against a literal."""
        if value is not None and self.rng.random() < 0.25:
            return f"{prop} {op} {value}"
        name = f"r{len(self.parameters)}"
        self.parameters[name] = value
        return f"{prop} {op} :{name}"

    def generate_range(self) -> tuple[str, dict[str, object]]:
        """A selection on ``Paragraph.number`` by bind-time range bounds:
        one- and two-sided, a parameter mixed with a constant or a second
        parameter on the same side, NULL and crossed bounds, and — half the
        time — a method-bearing residual."""
        self.parameters = {}
        rng = self.rng
        draw = lambda: rng.choice((*NUMBERS, *NUMBERS, None))  # noqa: E731
        sides = rng.choice(("low", "high", "both", "both", "both"))
        parts = []
        if sides != "high":
            parts.append(self._bound("p.number", rng.choice((">", ">=")), draw()))
        if sides != "low":
            parts.append(self._bound("p.number", rng.choice(("<", "<=")), draw()))
        if rng.random() < 0.35:  # a second bound on one side
            parts.append(self._bound("p.number",
                                     rng.choice((">", ">=", "<", "<=")), draw()))
        if rng.random() < 0.5:
            parts.append(rng.choice((
                f"p->contains_string({self._term()})",
                f"p->wordCount() > {self._number()}")))
        rng.shuffle(parts)
        access = rng.choice(("p", "p.number"))
        text = (f"ACCESS {access} FROM p IN Paragraph WHERE "
                + " AND ".join(f"({part})" for part in parts))
        return text, self._used_parameters(text)

    # -- multi-way join queries ------------------------------------------
    #: 3–5-relation equi-join topologies over the document schema's
    #: reference properties (Paragraph.section → Section.document)
    MULTIJOIN_SHAPES = {
        "chain3": ([("p", "Paragraph"), ("s", "Section"), ("d", "Document")],
                   ["p.section == s", "s.document == d"]),
        "star3": ([("p", "Paragraph"), ("q", "Paragraph"), ("s", "Section")],
                  ["p.section == s", "q.section == s"]),
        "chain4": ([("p", "Paragraph"), ("q", "Paragraph"),
                    ("s", "Section"), ("d", "Document")],
                   ["p.section == s", "q.section == s", "s.document == d"]),
        "star5": ([("p", "Paragraph"), ("q", "Paragraph"), ("s", "Section"),
                   ("t", "Section"), ("d", "Document")],
                  ["p.section == s", "q.section == t",
                   "s.document == d", "t.document == d"]),
    }

    def generate_multijoin(self, shape: str = None
                           ) -> tuple[str, dict[str, object]]:
        """A 3–5-way join query: the shape's equi-join edges plus one or
        two random local predicates (property or method based, possibly
        parameterized) — the join-order enumerator's fuzz surface."""
        self.parameters = {}
        if shape is None:
            # the wide shapes are expensive under the naive-plan oracle,
            # so the sampler leans on the three-relation topologies
            shape = self.rng.choice(("chain3", "chain3", "star3", "star3",
                                     "chain4", "star5"))
        variables, joins = self.MULTIJOIN_SHAPES[shape]
        atoms: list[str] = []
        for var, class_name in variables:
            atoms.extend(self._atoms(var, class_name))
        picked = self.rng.sample(atoms, k=min(self.rng.randint(1, 2),
                                              len(atoms)))
        condition = " AND ".join(f"({part})" for part in joins + picked)
        fields = ", ".join(
            f"f{i}: {var}.title" if cls == "Document" else f"f{i}: {var}.number"
            for i, (var, cls) in enumerate(variables))
        ranges = ", ".join(f"{var} IN {cls}" for var, cls in variables)
        text = f"ACCESS [{fields}] FROM {ranges} WHERE {condition}"
        return text, self._used_parameters(text)

    # -- tuple projections over equi-joins on property paths --------------
    #: (range variables, equi-join) pairs the eager distinct may reduce
    EAGER_JOINS = (
        ([("p", "Paragraph"), ("q", "Paragraph")],
         "p.section.document == q.section.document"),
        ([("p", "Paragraph"), ("q", "Paragraph")], "p.section == q.section"),
        ([("p", "Paragraph"), ("s", "Section")], "p.section == s"),
        ([("p", "Paragraph"), ("d", "Document")], "p.section.document == d"),
        ([("s", "Section"), ("t", "Section")], "s.document == t.document"),
    )
    #: single-side property paths per class (the last hop may be NULL on
    #: the orphans of :func:`eager_db`)
    EAGER_PATHS = {
        "Paragraph": ("{v}.number", "{v}.section.number",
                      "{v}.section.document.title"),
        "Section": ("{v}.number", "{v}.title", "{v}.document.title"),
        "Document": ("{v}.title", "{v}.author"),
    }

    def generate_eager(self) -> tuple[str, dict[str, object], str]:
        """``(text, parameters, kind)``: an ACCESS tuple over a two-way
        equi-join on property paths.  *kind* ``single``: every field reads
        one side (or is a constant); ``mixed``: one field reads both sides;
        ``method``: one field calls a method."""
        self.parameters = {}
        rng = self.rng
        variables, join = rng.choice(self.EAGER_JOINS)
        kind = rng.choice(("single", "single", "mixed", "method"))
        if kind == "method" and variables[0][1] != "Paragraph":
            kind = "single"
        fields = [rng.choice(self.EAGER_PATHS[cls]).format(v=var)
                  for var, cls in rng.sample(variables, k=len(variables))
                  for _ in range(rng.randint(0, 2))] or [
            f"{variables[0][0]}.number" if variables[0][1] != "Document"
            else f"{variables[0][0]}.title"]
        if rng.random() < 0.3:
            fields.append(self._number())
        if kind == "mixed":
            fields.append(" == ".join(
                rng.choice(self.EAGER_PATHS[cls]).format(v=var)
                for var, cls in variables))
        elif kind == "method":
            fields.append(f"{variables[0][0]}->wordCount()")
        rng.shuffle(fields)
        access = ", ".join(f"f{i}: {field}" for i, field in enumerate(fields))
        conjuncts = [join]
        if rng.random() < 0.6:
            var, cls = rng.choice(variables)
            conjuncts.append(rng.choice(self._atoms(var, cls)))
        ranges = ", ".join(f"{var} IN {cls}" for var, cls in variables)
        text = (f"ACCESS [{access}] FROM {ranges} WHERE "
                + " AND ".join(f"({part})" for part in conjuncts))
        return text, self._used_parameters(text), kind


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
def multiset(rows):
    return Counter(make_hashable(row) for row in rows)


@pytest.fixture(scope="module")
def fuzz_db():
    return generate_document_database(n_documents=2)


@pytest.fixture(scope="module")
def session(fuzz_db):
    return Session(fuzz_db, knowledge=document_knowledge(fuzz_db.schema))


def run_one(text: str, parameters: dict, fuzz_db, session) -> int:
    """Run one generated query through every engine; return the row count."""
    # Oracle: naive plan, reference interpreter.  Parameters are substituted
    # before translation, exactly like Session.execute(parameters=...).
    bound = Session._bind(session.analyze(text), parameters or None)
    translation = translate_query(bound)
    naive_plan = naive_implementation(translation.plan)
    oracle = multiset(execute_plan_interpreted(naive_plan, fuzz_db))

    # Compiled engine on the same naive plan.
    assert multiset(execute_plan(naive_plan, fuzz_db)) == oracle, \
        f"compiled/naive diverges: {text!r}"

    # Optimized plan: compiled (via the session) + prepared + interpreter.
    result = session.execute(text, parameters=parameters or None)
    assert multiset(result.rows) == oracle, \
        f"optimized plan diverges: {text!r}"
    plan = result.physical_plan
    assert multiset(execute_plan_interpreted(plan, fuzz_db)) == oracle, \
        f"interpreter on the optimized plan diverges: {text!r}"
    assert multiset(prepare_plan(plan, fuzz_db).run()) == oracle, \
        f"prepared optimized plan diverges: {text!r}"
    return sum(oracle.values())


#: fixed seeds: each batch is deterministic, ~N_CASES//4 queries per batch
BATCH_SEEDS = (11, 23, 47, 89)


@pytest.mark.parametrize("seed", BATCH_SEEDS)
def test_fuzz_differential_batch(seed, fuzz_db, session):
    generator = QueryGenerator(random.Random(seed))
    cases = max(N_CASES // len(BATCH_SEEDS), 1)
    non_empty = 0
    for _ in range(cases):
        text, parameters = generator.generate()
        if run_one(text, parameters, fuzz_db, session) > 0:
            non_empty += 1
    # the generator must not degenerate into only-empty results
    assert non_empty >= cases // 10


def test_generator_is_deterministic():
    first = QueryGenerator(random.Random(7))
    second = QueryGenerator(random.Random(7))
    for _ in range(25):
        assert first.generate() == second.generate()
    for _ in range(10):
        assert first.generate_multijoin() == second.generate_multijoin()
    for _ in range(10):
        assert first.generate_range() == second.generate_range()


# ----------------------------------------------------------------------
# bind-time range bounds: the plan is made before the values are known
# ----------------------------------------------------------------------
RANGE_SEEDS = (17, 71)


@pytest.fixture(scope="module")
def range_services():
    """Plan-caching services over a database with a sorted index on
    ``Paragraph.number`` — unlike ``Session.execute``, a service optimizes
    with the parameters still unbound.  The structural one has no semantic
    rules: with them a ``contains_string`` residual becomes a set probe,
    without them it stays a method call filtering the range scan."""
    from repro.service.service import QueryService

    database = generate_document_database(n_documents=2)
    database.create_sorted_index("Paragraph", "number")
    knowledge = document_knowledge(database.schema)
    return database, {
        "semantic": QueryService(database, knowledge=knowledge),
        "structural": QueryService(database, knowledge=knowledge,
                                   exclude_tags=("semantic",)),
    }


@pytest.mark.parametrize("seed", RANGE_SEEDS)
def test_fuzz_parameterized_range_differential_batch(seed, range_services):
    """Cached plans with bind-time range bounds — index range scans, with
    and without the semantic rewrites — equal the interpreter on the naive
    plan of the same query with the values substituted, for every
    binding."""
    from test_bind_time_access_paths import bind_plan

    database, services = range_services
    session = Session(database)
    generator = QueryGenerator(random.Random(seed))
    cases = max(N_CASES // (4 * len(RANGE_SEEDS)), 1)
    scans = Counter()
    non_empty = 0
    for _ in range(cases):
        text, parameters = generator.generate_range()
        bound = Session._bind(session.analyze(text), parameters or None)
        naive_plan = naive_implementation(translate_query(bound).plan)
        oracle = multiset(execute_plan_interpreted(naive_plan, database))
        non_empty += bool(oracle)
        for name, service in services.items():
            result = service.execute(text, parameters or None)
            assert multiset(result.rows) == oracle, \
                f"{name} service diverges: {text!r} {parameters!r}"
            plan = result.plan.physical_plan
            assert multiset(execute_plan_interpreted(
                bind_plan(plan, result.bindings), database)) == oracle, \
                f"interpreter on the {name} plan diverges: {text!r}"
            for node in walk_physical(plan):
                if isinstance(node, IndexRangeScan) and (
                        isinstance(node.low, Parameter)
                        or isinstance(node.high, Parameter)):
                    scans[type(node).__name__] += 1
    assert non_empty >= cases // 10
    # the generator must reach the operators this batch is about
    assert scans["IndexRangeScan"] >= cases // 2


# ----------------------------------------------------------------------
# multi-way joins: the join-order enumerator's differential surface
# ----------------------------------------------------------------------
MULTIJOIN_SEEDS = (13, 59)


@pytest.fixture(scope="module")
def multijoin_session(fuzz_db):
    """A session with a tight exploration cap: five-relation closures run
    to thousands of plans, and truncated exploration is itself a target —
    the seeded join order must stay differential when the closure stops
    early."""
    from repro.optimizer.search import OptimizerOptions

    knowledge = document_knowledge(fuzz_db.schema)
    options = OptimizerOptions(max_logical_plans=400, enable_trace=False)
    return Session(fuzz_db, knowledge=knowledge, options=options)


@pytest.mark.parametrize("seed", MULTIJOIN_SEEDS)
def test_fuzz_multijoin_differential_batch(seed, fuzz_db, multijoin_session):
    """3–5-way chain and star joins (mixed property/method predicates,
    bind parameters) stay multiset-identical across interpreter, compiled
    and prepared engines on naive and optimized plans — the enumerator
    may reorder the joins, never change the rows."""
    generator = QueryGenerator(random.Random(seed))
    shapes = ("chain3", "star3", "chain4", "star5",
              None, None)  # None → weighted random shape
    non_empty = 0
    for shape in shapes:
        text, parameters = generator.generate_multijoin(shape)
        if run_one(text, parameters, fuzz_db, multijoin_session) > 0:
            non_empty += 1
    assert non_empty >= 2  # join edges must keep producing matches


def test_multijoin_feedback_drift_oracle(monkeypatch):
    """Replanning after adaptive feedback never changes results: under
    drift, every service execution of a multi-join query must equal a
    from-scratch naive evaluation of the same query at that moment."""
    from repro.service.service import QueryService

    # eager corrections
    monkeypatch.setattr(QueryService, "FEEDBACK_THRESHOLD", 3.0)
    database = generate_document_database(n_documents=2)
    knowledge = document_knowledge(database.schema)
    service = QueryService(database, knowledge=knowledge)
    service.execute("ANALYZE")

    generator = QueryGenerator(random.Random(211))
    cases = [generator.generate_multijoin(shape)
             for shape in ("chain3", "star3", "chain4")]
    rng = random.Random(211)

    def reference(text, parameters):
        bound = Session._bind(
            Session(database, knowledge=knowledge).analyze(text),
            parameters or None)
        plan = naive_implementation(translate_query(bound).plan)
        return multiset(execute_plan_interpreted(plan, database))

    for round_number in range(3):
        for text, parameters in cases:
            for _ in range(2):  # spans profile → correct → replan
                result = service.execute(text, parameters or None)
                assert multiset(result.rows) == reference(text, parameters), \
                    f"feedback replan changed results: {text!r}"
        # drift: renumber a few paragraphs (stays below staleness)
        paragraphs = list(database.extension("Paragraph"))
        for oid in rng.sample(paragraphs, k=min(4, len(paragraphs))):
            database.update(oid, number=rng.choice(NUMBERS))


# ----------------------------------------------------------------------
# auto-parameterized plans: literal plan ≡ generic plan ≡ naive plan
# ----------------------------------------------------------------------
def fresh_literals(text: str, rng: random.Random) -> str:
    """*text* with every string and number literal redrawn from the
    generator's pools — the same statement shape with other constants."""
    for token in reversed(tokenize(text)):
        if token.kind == "STRING":
            width, value = len(token.text) + 2, f"'{rng.choice(TERMS + TITLES)}'"
        elif token.kind == "NUMBER":
            width, value = len(token.text), str(rng.choice(NUMBERS))
        else:
            continue
        text = text[:token.position] + value + text[token.position + width:]
    return text


AUTO_SEEDS = (19, 67)


@pytest.mark.parametrize("seed", AUTO_SEEDS)
def test_fuzz_auto_parameterized_plans_equal_literal_and_naive(
        seed, token_path_oracle):
    """Each generated query runs through one connection three times, the
    later two with fresh literal values: the first plans for its own text,
    the second plans the shape's generic plan, the third is served by it.
    Every run equals ``Session.execute`` (the literal plan, values
    substituted before optimization) and ``execute_naive``, multiset for
    multiset; a variant matched by its token key resolves to what a full
    parse generalizes it to."""
    from repro import connect

    database = generate_document_database(n_documents=2)
    knowledge = document_knowledge(database.schema)
    connection = connect(database, knowledge=knowledge)
    session = Session(database, knowledge=knowledge)
    generator = QueryGenerator(random.Random(seed))
    rng = random.Random(seed + 1)
    cases = max(N_CASES // (4 * len(AUTO_SEEDS)), 1)
    served = matched = 0
    for _ in range(cases):
        text, parameters = generator.generate()
        variants = [text, fresh_literals(text, rng), fresh_literals(text, rng)]
        for variant in variants:
            matched += token_path_oracle(connection.service, variant)
            hits = connection.service.cache.statistics.hits
            rows = Counter(make_hashable(value) for value in connection.execute(
                variant, parameters or None).fetchall())
            literal = session.execute(variant, parameters=parameters or None)
            naive = session.execute_naive(variant, parameters=parameters or None)
            assert rows == multiset(literal.values) == multiset(naive.values), \
                f"auto-parameterized plan diverges: {variant!r} {parameters!r}"
        served += connection.service.cache.statistics.hits > hits
    # the third run must mostly reuse a cached plan, not plan afresh
    assert served >= cases // 2
    # ... and most later variants skip the parser
    assert matched >= cases // 2


LITERALS = st.one_of(st.integers(-3, 12),
                     st.floats(-2, 8, allow_nan=False).map(lambda x: round(x, 2)),
                     st.text(alphabet="ab", max_size=2), st.none())
ATOMS = st.tuples(st.sampled_from(("k", "v", "r", "s")),
                  st.sampled_from(("==", "!=", "<", ">=")), LITERALS,
                  st.sampled_from(("literal", "?", ":name")))
@pytest.fixture(scope="module")
def value_stack():
    """One database, service and session shared by every example, so that
    shapes recur with other values and generic plans are reused."""
    from repro.datamodel.database import Database
    from repro.datamodel.schema import ClassDef, PropertyDef, Schema
    from repro.datamodel.types import INT, REAL, STRING
    from repro.service.service import QueryService

    schema = Schema("literals")
    t = ClassDef("T")
    for name, vml_type in (("k", INT), ("v", INT), ("r", REAL), ("s", STRING)):
        t.add_property(PropertyDef(name, vml_type))
    schema.add_class(t)
    database = Database(schema)
    database.create_many("T", [
        {"k": k, "v": None if k % 5 == 4 else k % 4,
         "r": None if k % 6 == 5 else k / 2,
         "s": None if k % 7 == 6 else "ab"[k % 2] * (k % 3)}
        for k in range(14)])
    database.create_hash_index("T", "v")
    database.create_sorted_index("T", "r")
    return QueryService(database), Session(database)


def _comparable(prop: str, value) -> bool:
    return value is None or (prop == "s") == isinstance(value, str)


@settings(max_examples=150, deadline=None)
@given(atoms=st.lists(ATOMS, min_size=1, max_size=3), twice=st.booleans())
def test_auto_parameterization_over_value_types(value_stack, atoms, twice,
                                                token_path_oracle):
    """int / float / str / NULL values, as literals or as the client's ``?``
    and ``:name`` parameters (NULL only as a parameter: VQL has no NULL
    literal), the same literal twice — the cached generic plan answers
    exactly like the literal and the naive plan, and a text matched by its
    token key resolves to what a full parse generalizes it to."""
    service, session = value_stack
    parts, parameters, positional = [], {}, 0
    for index, (prop, op, value, mode) in enumerate(atoms):
        if not _comparable(prop, value):
            op = "==" if op in ("==", "<") else "!="  # no cross-type order
        if value is None and mode == "literal":
            mode = ":name"
        if mode == "literal":
            rendered = f"'{value}'" if isinstance(value, str) else repr(value)
        elif mode == "?":
            positional += 1
            parameters[str(positional)] = value
            rendered = "?"
        else:
            parameters[f"n{index}"] = value
            rendered = f":n{index}"
        parts.append(f"(t.{prop} {op} {rendered})")
    condition = " AND ".join(parts)
    first = atoms[0][2]
    if twice and first is not None and not isinstance(first, str):
        condition = f"({condition}) OR (t.k == {first!r} AND t.v != {first!r})"
    text = f"ACCESS t.k FROM t IN T WHERE {condition}"
    bound = parameters or None
    token_path_oracle(service, text)
    result = service.execute(text, bound)
    assert multiset(result.values) \
        == multiset(session.execute(text, parameters=bound).values) \
        == multiset(session.execute_naive(text, parameters=bound).values), text


# ----------------------------------------------------------------------
# statistics-enabled differential + the EXPLAIN ANALYZE sanity oracle
# ----------------------------------------------------------------------
def test_fuzz_with_statistics_stays_identical_and_estimates_sane():
    """ANALYZE must never change results, and profiled executions must
    report internally consistent counters with sane (finite, non-negative)
    estimates; the root operator's actual rows must equal the result size.
    """
    import math

    from repro.physical.profile import PlanProfile, estimated_vs_actual

    database = generate_document_database(n_documents=2)
    knowledge = document_knowledge(database.schema)
    flat = Session(database, knowledge=knowledge)
    baselines = {}
    generator = QueryGenerator(random.Random(101))
    cases = [generator.generate() for _ in range(40)]

    for text, parameters in cases:
        result = flat.execute(text, parameters=parameters or None)
        baselines[text] = multiset(result.rows)

    database.analyze()  # histograms + calibrated method costs from here on
    informed = Session(database, knowledge=knowledge)

    non_trivial = 0
    for text, parameters in cases:
        bound = Session._bind(informed.analyze(text), parameters or None)
        translation = translate_query(bound)
        plan = informed.optimizer.optimize(translation.plan).best_plan
        profile = PlanProfile()
        rows = execute_plan(plan, database, profile=profile)
        assert multiset(rows) == baselines[text], \
            f"statistics changed the result of: {text!r}"

        records = estimated_vs_actual(plan, profile,
                                      informed.optimizer.cost_model)
        root = records[0]
        assert root["actual_rows"] == len(rows)
        for record in records:
            assert record["estimated_rows"] >= 0.0
            assert math.isfinite(record["estimated_rows"])
            assert record["actual_rows"] >= 0
            assert record["opens"] >= 1
            assert record["seconds"] >= 0.0
        if len(rows) > 0:
            non_trivial += 1
    assert non_trivial >= 4  # the corpus must not degenerate to empty results


# ----------------------------------------------------------------------
# eager distinct below joins
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def eager_db():
    """Three documents, analyzed, plus a paragraph without a section and a
    section without a document: NULL on every path the joins read."""
    database = generate_document_database(n_documents=3)
    database.create("Paragraph", number=2, section=None,
                    content="an orphan paragraph word0003")
    database.create("Section", number=1, title="loose", document=None,
                    paragraphs=set())
    database.analyze()
    return database


@pytest.fixture(scope="module")
def dangling_db():
    """Three documents, analyzed after a section and a document are
    deleted and the paragraphs and sections that referenced them are
    pointed back at the deleted objects: dangling references, which
    raise when a path reads through them.  (A delete alone leaves none:
    link upkeep sets the referrers' references to NULL, and a write of a
    deleted object's OID has no other side to maintain.)"""
    database = generate_document_database(n_documents=3)
    section = database.extension("Section")[0]
    document = database.extension("Document")[-1]
    paragraphs = database.value(section, "paragraphs")
    sections = database.value(document, "sections")
    database.delete(section)
    database.delete(document)
    for oid in paragraphs:
        database.update(oid, section=section)
    for oid in sections:
        if oid != section:
            database.update(oid, document=document)
    database.analyze()
    return database


def _eager_alternative(optimization):
    """The first explored logical plan the eager distinct produced."""
    for alternative in optimization.logical_alternatives:
        if any(ref.startswith(EAGER_COLUMN_MARK)
               for node in walk_operators(alternative)
               for ref in node.refs()):
            return alternative
    return None


def _outcome(engine, plan, database):
    """The rows *engine* returns for *plan*, or the error class when a
    path reads a dangling reference."""
    try:
        return multiset(engine(plan, database))
    except ObjectNotFoundError:
        return ObjectNotFoundError


@pytest.mark.parametrize("fixture", ("eager_db", "dangling_db"))
@pytest.mark.parametrize("seed", (3, 19))
def test_fuzz_eager_distinct_below_path_joins(seed, fixture, request):
    """Tuple projections over path equi-joins: the optimized plan on both
    engines, and every eager alternative lowered one to one, return what
    the naive plan returns; the rule fires only where every field reads
    one side through paths.  Where the naive plan fails on a dangling
    path (it reads every condition on the whole cross product), a plan
    that reads less may answer: only a failure the naive plan does not
    have is a divergence."""
    database = request.getfixturevalue(fixture)
    session = Session(database, knowledge=document_knowledge(database.schema))
    generator = QueryGenerator(random.Random(seed))
    fired = {"single": 0, "mixed": 0, "method": 0}
    chosen = answered = 0
    for _ in range(max(N_CASES // 8, 12)):
        text, parameters, kind = generator.generate_eager()
        bound = Session._bind(session.analyze(text), parameters or None)
        translation = translate_query(bound)
        oracle = _outcome(execute_plan_interpreted,
                          naive_implementation(translation.plan), database)
        optimization = session.optimizer.optimize(translation.plan)
        plan = optimization.best_plan
        eager = _eager_alternative(optimization)
        plans = [plan] + ([naive_implementation(eager)] if eager else [])
        if oracle is not ObjectNotFoundError:
            answered += 1
            for candidate in plans:
                for engine in (execute_plan, execute_plan_interpreted):
                    assert _outcome(engine, candidate, database) == oracle, text
        counts = optimization.statistics.rule_application_counts
        fired[kind] += counts.get("eager-distinct", 0) > 0
        chosen += any(ref.startswith(EAGER_COLUMN_MARK)
                      for node in walk_physical(plan) for ref in node.refs())
    assert fired["single"] > 0 and chosen > 0 and answered > 0
    # a method never runs below the join, a mixed field has no side
    assert fired["mixed"] == fired["method"] == 0


# ----------------------------------------------------------------------
# mutation-interleaved fuzzing: INSERT/UPDATE/DELETE between queries
# ----------------------------------------------------------------------
MUTATION_SEEDS = (5, 17, 31)
#: words inserted paragraphs draw their content from (short on purpose:
#: the wordCount/largeParagraphs implication only covers the loader's
#: original long paragraphs, so fuzz content stays far below the threshold)
FUZZ_WORDS = TERMS + ("fuzz0001", "fuzz0002", "fuzz0003")


class MutationFuzzer:
    """Drives seeded INSERT/UPDATE/DELETE batches through the statement API
    while keeping the document schema's invariants intact — the database
    maintains the inverse links, and fuzz content stays clear of the
    derived largeParagraphs — so the engines must stay differential."""

    def __init__(self, connection, rng: random.Random):
        self.connection = connection
        self.database = connection.database
        self.rng = rng
        #: paragraphs created by the fuzzer (only these may be deleted or
        #: have their content rewritten: loader paragraphs participate in
        #: the derived largeParagraphs set)
        self.pool: list = []

    def _content(self) -> str:
        count = self.rng.randint(2, 6)
        return " ".join(self.rng.choice(FUZZ_WORDS) for _ in range(count))

    def _sections(self) -> list:
        return self.database.extension("Section")

    def insert_batch(self) -> None:
        router = self.connection.router
        rows = [{"n": self.rng.choice(NUMBERS),
                 "s": self.rng.choice(self._sections()),
                 "c": self._content()}
                for _ in range(self.rng.randint(2, 8))]
        result = router.executemany(
            "INSERT INTO Paragraph (number, section, content) "
            "VALUES (:n, :s, :c)", rows)
        assert result.rowcount == len(rows)
        self.pool.extend(result.oids)  # the database links each section

    def update_batch(self) -> None:
        cursor = self.connection.cursor()
        cursor.execute(
            "UPDATE Paragraph p SET number = :n WHERE p.number == :m",
            {"n": self.rng.choice(NUMBERS), "m": self.rng.choice(NUMBERS)})
        if self.rng.random() < 0.5:
            cursor.execute(
                "UPDATE Section s SET number = s.number + 0 "
                "WHERE s.number == :m", {"m": self.rng.choice(NUMBERS)})
        live = [oid for oid in self.pool if self.database.exists(oid)]
        if live:
            cursor.execute(
                "UPDATE Paragraph p SET content = :c WHERE p == :oid",
                {"c": self._content(), "oid": self.rng.choice(live)})

    def delete_batch(self) -> None:
        live = [oid for oid in self.pool if self.database.exists(oid)]
        self.rng.shuffle(live)
        for oid in live[:self.rng.randint(0, 3)]:
            result = self.connection.cursor().execute(
                "DELETE FROM Paragraph p WHERE p == :oid", {"oid": oid})
            assert result.rowcount == 1

    def mutate(self) -> None:
        self.insert_batch()
        self.update_batch()
        self.delete_batch()


def assert_value_index_consistent(database, class_name, prop) -> None:
    """A hash/sorted index must mirror the deep extension exactly."""
    index = database.indexes.get(class_name, prop)
    expected: dict = {}
    for oid in database.extension(class_name):
        value = database.get(oid).get_or_none(prop)
        if value is not None:
            expected.setdefault(value, set()).add(oid)
    assert len(index) == sum(len(oids) for oids in expected.values())
    for value, oids in expected.items():
        assert index.lookup(value) == oids, \
            f"{class_name}.{prop} index diverges for key {value!r}"


def assert_text_index_consistent(database, class_name, prop) -> None:
    """The inverted index must agree with one rebuilt from the extension."""
    from repro.datamodel.ir import InvertedTextIndex

    engine = database.text_index(class_name, prop)
    rebuilt = InvertedTextIndex()
    for oid in database.extension(class_name):
        content = database.get(oid).get_or_none(prop)
        rebuilt.index_text(oid, str(content))
    for term in FUZZ_WORDS + ("word0001", "Implementation"):
        assert engine.retrieve(term) == rebuilt.retrieve(term), \
            f"text index diverges for term {term!r}"


@pytest.mark.parametrize("seed", MUTATION_SEEDS)
def test_fuzz_mutations_interleaved_with_queries(seed):
    """Seeded INSERT/UPDATE/DELETE interleavings between queries: engine
    results stay multiset-identical and hash / sorted / text indexes remain
    consistent with the extensions after every batch."""
    from repro import connect

    database = generate_document_database(n_documents=2)
    knowledge = document_knowledge(database.schema)
    connection = connect(database, knowledge=knowledge)
    # extra index DDL through the statement API: plans over mutated data
    # may now pick index access paths, which must stay maintained
    connection.execute("CREATE SORTED INDEX ON Paragraph(number)")
    connection.execute("CREATE HASH INDEX ON Section(number)")

    session = Session(database, knowledge=knowledge)
    rng = random.Random(seed)
    fuzzer = MutationFuzzer(connection, rng)
    generator = QueryGenerator(rng)

    for _ in range(4):
        fuzzer.mutate()

        # structural consistency after the mutation batch
        assert_value_index_consistent(database, "Paragraph", "number")
        assert_value_index_consistent(database, "Section", "number")
        assert_value_index_consistent(database, "Document", "title")
        assert_text_index_consistent(database, "Paragraph", "content")

        # differential queries over the mutated database: interpreter vs
        # compiled vs prepared on naive/optimized plans
        for _ in range(4):
            text, parameters = generator.generate()
            run_one(text, parameters, database, session)

        # the plan-cache-served cursor must agree with a fresh pipeline
        text, parameters = generator.generate()
        streamed = Counter(
            make_hashable(value) for value in
            connection.execute(text, parameters or None))
        reference = Counter(
            make_hashable(value) for value in
            session.execute(text, parameters=parameters or None).values)
        assert streamed == reference, \
            f"cursor diverges after mutations: {text!r}"


# ----------------------------------------------------------------------
# interleaved-transaction fuzzing: FWW conflicts vs a sequential model
# ----------------------------------------------------------------------
TXN_SEEDS = (3, 29, 71, 113)


@pytest.fixture(scope="module")
def txn_stack():
    """One shared service (warm plan cache) plus an Account class with a
    hash index on the immutable key, so transactional WHERE-queries also
    exercise snapshot index views."""
    from repro import connect
    from repro.service.service import QueryService

    database = generate_document_database(n_documents=1)
    service = QueryService(database)
    bootstrap = connect(database, service=service)
    bootstrap.execute("CREATE CLASS Account (name: STRING, balance: INT)")
    bootstrap.execute("CREATE HASH INDEX ON Account(name)")
    return database, service


def run_txn_case(tag: str, rng: random.Random, database, service) -> None:
    """One seeded case: create accounts, run 2–3 interleaved transactions
    over them, commit in random order, and check (a) snapshot isolation of
    every still-open transaction, (b) first-writer-wins conflicts exactly
    where the sequential model predicts them, (c) the final state equals
    the model's replay of the winners in commit order."""
    from repro import connect
    from repro.errors import TransactionConflictError

    setup = connect(database, service=service)
    names = [f"{tag}n{i}" for i in range(rng.randint(2, 4))]
    model = {name: rng.randint(0, 100) for name in names}
    setup.executemany("INSERT INTO Account (name, balance) VALUES (:n, :b)",
                      [{"n": n, "b": b} for n, b in model.items()])

    txns = []
    for t in range(rng.randint(2, 3)):
        ops = []
        for o in range(rng.randint(1, 3)):
            kind = rng.choice(("update", "update", "delete", "insert"))
            if kind == "update":
                ops.append(("update", rng.choice(names), rng.randint(0, 100)))
            elif kind == "delete":
                ops.append(("delete", rng.choice(names), None))
            else:
                ops.append(("insert", f"{tag}t{t}i{o}", rng.randint(0, 100)))
        txns.append({"connection": connect(database, service=service),
                     "ops": ops,
                     "commit": rng.random() < 0.8})

    for txn in txns:
        txn["connection"].execute("BEGIN")

    # execute every transaction's ops in a random interleaving (per-txn
    # order is preserved; cross-txn order is the fuzzed dimension)
    schedule = [index for index, txn in enumerate(txns)
                for _ in txn["ops"]]
    rng.shuffle(schedule)
    progress = dict.fromkeys(range(len(txns)), 0)
    for index in schedule:
        txn = txns[index]
        kind, name, balance = txn["ops"][progress[index]]
        progress[index] += 1
        connection = txn["connection"]
        if kind == "update":
            connection.execute(
                "UPDATE Account a SET balance = :b WHERE a.name == :n",
                {"b": balance, "n": name})
        elif kind == "delete":
            connection.execute("DELETE FROM Account a WHERE a.name == :n",
                               {"n": name})
        else:
            connection.execute(
                "INSERT INTO Account (name, balance) VALUES (:n, :b)",
                {"n": name, "b": balance})

    def write_set(txn) -> set:
        return {name for kind, name, _ in txn["ops"] if kind != "insert"}

    # commit (or roll back) in a random order; the model admits a
    # transaction iff its write set is disjoint from every earlier winner's
    order = list(range(len(txns)))
    rng.shuffle(order)
    written: set = set()
    state = dict(model)
    for index in order:
        txn = txns[index]
        connection = txn["connection"]
        targets = write_set(txn)
        if targets:
            # snapshot isolation: a still-open transaction reads its BEGIN
            # snapshot even after other transactions committed over it
            probe = sorted(targets)[0]
            assert connection.execute(
                "ACCESS a.balance FROM a IN Account WHERE a.name == :n",
                {"n": probe}).fetchall() == [model[probe]], \
                f"open transaction leaked committed state ({tag})"
        if not txn["commit"]:
            connection.execute("ROLLBACK")
            continue
        if targets & written:
            with pytest.raises(TransactionConflictError):
                connection.execute("COMMIT")
            continue
        connection.execute("COMMIT")
        written |= targets
        for kind, name, balance in txn["ops"]:
            if kind == "update":
                if name in state:
                    state[name] = balance
            elif kind == "delete":
                state.pop(name, None)
            else:
                state[name] = balance

    # final state must equal the sequential model's replay
    checker = connect(database, service=service)
    inserted = [name for txn in txns for kind, name, _ in txn["ops"]
                if kind == "insert"]
    for name in names + inserted:
        rows = checker.execute(
            "ACCESS a.balance FROM a IN Account WHERE a.name == :n",
            {"n": name}).fetchall()
        expected = [state[name]] if name in state else []
        assert rows == expected, \
            f"final state diverges from the model for {name!r}"


@pytest.mark.parametrize("seed", TXN_SEEDS)
def test_fuzz_interleaved_transactions(seed, txn_stack):
    """Seeded interleaved BEGIN/COMMIT/ROLLBACK transactions over a shared
    service: snapshot reads, first-writer-wins conflicts and final states
    all match a sequential dictionary model (~N_CASES cases across the
    seed batches)."""
    database, service = txn_stack
    rng = random.Random(seed)
    cases = max(N_CASES // len(TXN_SEEDS), 1)
    for case in range(cases):
        run_txn_case(f"c{seed}x{case}_", rng, database, service)


# ----------------------------------------------------------------------
# crash-recovery fuzzing: WAL torn at a random byte offset vs an oracle
# ----------------------------------------------------------------------
#: total crash-recovery schedules across the seed batches
N_CRASH_CASES = int(os.environ.get("REPRO_CRASH_CASES", "100"))
CRASH_SEEDS = (7, 19, 43, 101)


class CrashOracle:
    """Replays the *committed-record prefix* of a WAL independently of the
    storage adapter: a dict-of-dicts model of classes, live objects (in
    creation order), allocator counters, index definitions and analyzed
    classes.  Whatever the adapter recovers must equal this model."""

    def __init__(self):
        self.classes: dict[str, object] = {}
        self.objects: dict[tuple[str, int], dict] = {}
        self.order: dict[str, list[int]] = {}
        self.next_serial: dict[str, int] = {}
        self.indexes: set[tuple[str, str, str]] = set()
        self.analyzed: set[str] = set()

    def apply(self, record: dict) -> None:
        from repro.storage.encoding import decode_values

        kind = record["kind"]
        if kind == "commit":
            for op in record["ops"]:
                tag = op[0]
                if tag == "create":
                    _, class_name, serial, values = op
                    self.objects[(class_name, serial)] = decode_values(values)
                    self.order.setdefault(class_name, []).append(serial)
                    self.next_serial[class_name] = max(
                        self.next_serial.get(class_name, 0), serial)
                elif tag == "update":
                    _, class_name, serial, values = op
                    self.objects[(class_name, serial)].update(
                        decode_values(values))
                else:
                    _, class_name, serial = op
                    del self.objects[(class_name, serial)]
                    self.order[class_name].remove(serial)
        elif kind == "create_class":
            name, superclass, props = record["args"]
            self.classes[name] = (superclass, tuple(map(tuple, props)))
        elif kind == "create_index":
            index_kind, class_name, prop = record["args"]
            self.indexes.add((index_kind, class_name, prop))
        elif kind == "drop_index":
            class_name, prop, text = record["args"]
            self.indexes = {entry for entry in self.indexes
                            if not (entry[1] == class_name
                                    and entry[2] == prop
                                    and (entry[0] == "text") == text)}
        elif kind == "analyze":
            self.analyzed.add(record["args"][0])
        else:  # pragma: no cover - format drift guard
            raise AssertionError(f"unknown WAL record kind {kind!r}")


def _crash_workload(connection, rng: random.Random) -> None:
    """A seeded schedule of DML / executemany / transactions / DDL."""
    cursor = connection.cursor()
    cursor.execute("CREATE CLASS Account (name: STRING, balance: INT)")
    if rng.random() < 0.5:
        cursor.execute("CREATE HASH INDEX ON Account(name)")
    if rng.random() < 0.3:
        cursor.execute("CREATE SORTED INDEX ON Account(balance)")
    created = 0
    for _ in range(rng.randint(4, 9)):
        action = rng.random()
        if action < 0.35:
            batch = [{"n": f"acct{created + i}", "b": rng.randint(0, 100)}
                     for i in range(rng.randint(2, 6))]
            created += len(batch)
            cursor.executemany(
                "INSERT INTO Account (name, balance) VALUES (:n, :b)", batch)
        elif action < 0.5:
            cursor.execute(
                "INSERT INTO Account (name, balance) VALUES (:n, :b)",
                {"n": f"acct{created}", "b": rng.randint(0, 100)})
            created += 1
        elif action < 0.65:
            cursor.execute(
                "UPDATE Account a SET balance = a.balance + :d "
                "WHERE a.balance < :m",
                {"d": rng.randint(1, 10), "m": rng.randint(0, 100)})
        elif action < 0.75:
            cursor.execute("DELETE FROM Account a WHERE a.balance == :b",
                           {"b": rng.randint(0, 100)})
        elif action < 0.9:
            cursor.execute("BEGIN")
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.6:
                    cursor.execute(
                        "INSERT INTO Account (name, balance) VALUES (:n, :b)",
                        {"n": f"txn{created}", "b": rng.randint(0, 100)})
                    created += 1
                else:
                    cursor.execute(
                        "UPDATE Account a SET balance = :b "
                        "WHERE a.balance == :m",
                        {"b": rng.randint(0, 100),
                         "m": rng.randint(0, 100)})
            cursor.execute("COMMIT" if rng.random() < 0.7 else "ROLLBACK")
        else:
            cursor.execute("ANALYZE Account")


def _check_recovered_equals_oracle(database, oracle: CrashOracle) -> None:
    for class_name in oracle.classes:
        assert database.schema.has_class(class_name)
        live = [serial for serial in oracle.order.get(class_name, ())
                if (class_name, serial) in oracle.objects]
        recovered = [oid.serial
                     for oid in database.extension(class_name, deep=False)]
        assert recovered == live, \
            f"{class_name} extension order diverges from the oracle"
        for serial in live:
            oid = next(oid for oid in database.extension(class_name,
                                                         deep=False)
                       if oid.serial == serial)
            assert database.get(oid).values \
                == oracle.objects[(class_name, serial)], \
                f"recovered values diverge for {class_name}:{serial}"
        counters = database.oid_counters()
        assert counters.get(class_name, 0) \
            >= oracle.next_serial.get(class_name, 0), \
            "recovered allocator could reuse a logged serial"
    for index_kind, class_name, prop in oracle.indexes:
        if class_name not in oracle.classes:
            continue
        if index_kind == "text":
            assert database.text_index(class_name, prop) is not None
        else:
            index = database.indexes.get(class_name, prop)
            assert index is not None and index.kind == index_kind
    for class_name in oracle.analyzed:
        if class_name in oracle.classes:
            assert class_name in database.stats_catalog.analyzed_classes()


def _query_recovered_through_all_engines(database, oracle: CrashOracle,
                                         rng: random.Random) -> None:
    """The recovered database must serve queries, identically, through the
    interpreter, the compiled engine and the optimized plan."""
    threshold = rng.randint(0, 100)
    text = "ACCESS a.balance FROM a IN Account WHERE a.balance >= :m"
    # ACCESS has set semantics: two accounts sharing a balance produce one
    # output value, so the oracle's expectation is a set, not a multiset
    expected = {
        values["balance"]
        for (class_name, _), values in oracle.objects.items()
        if class_name == "Account" and values["balance"] >= threshold}

    session = Session(database)
    bound = Session._bind(session.analyze(text), {"m": threshold})
    naive_plan = naive_implementation(translate_query(bound).plan)
    interpreted = multiset(execute_plan_interpreted(naive_plan, database))
    assert multiset(execute_plan(naive_plan, database)) == interpreted, \
        "compiled engine diverges on the recovered database"
    result = session.execute(text, parameters={"m": threshold})
    assert set(result.values) == expected, \
        "optimized plan diverges from the oracle"
    assert multiset(result.rows) == interpreted, \
        "optimized plan diverges from the interpreter"


def run_crash_case(rng: random.Random) -> int:
    """One schedule: run a durable workload, tear the WAL at a random byte
    offset, recover, and compare against the oracle's replay of the
    committed-record prefix.  Returns the number of surviving records."""
    import shutil
    import tempfile

    from repro import connect
    from repro.datamodel.database import Database
    from repro.datamodel.schema import Schema
    from repro.storage import FileStorageAdapter, read_records

    work_dir = tempfile.mkdtemp(prefix="crash-work-")
    recover_dir = tempfile.mkdtemp(prefix="crash-recover-")
    try:
        connection = connect(Database(Schema("crash")), durability="wal",
                             storage_path=work_dir, wal_fsync="never",
                             checkpoint_interval=0)
        _crash_workload(connection, rng)
        connection.close()
        connection.database.close()

        wal = open(os.path.join(work_dir, "wal.log"), "rb").read()
        torn = wal[:rng.randint(0, len(wal))]
        with open(os.path.join(recover_dir, "wal.log"), "wb") as handle:
            handle.write(torn)

        oracle = CrashOracle()
        survivors = 0
        valid = 0
        for payload, end in read_records(torn):
            oracle.apply(payload)
            survivors += 1
            valid = end

        database = Database(Schema("crash"))
        adapter = FileStorageAdapter(recover_dir, fsync="never",
                                     checkpoint_interval=0)
        database.attach_storage(adapter)
        assert adapter.counters()["recovery_discarded_bytes"] \
            == len(torn) - valid
        _check_recovered_equals_oracle(database, oracle)
        if "Account" in oracle.classes:
            _query_recovered_through_all_engines(database, oracle, rng)
        database.close()
        return survivors
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        shutil.rmtree(recover_dir, ignore_errors=True)


@pytest.mark.parametrize("seed", CRASH_SEEDS)
def test_fuzz_crash_recovery_batch(seed):
    """Seeded crash-recovery schedules (~N_CRASH_CASES across the seed
    batches): the state recovered from a randomly torn WAL must equal the
    oracle's replay of the committed-record prefix, and the reopened
    database must serve queries through every engine."""
    rng = random.Random(seed)
    cases = max(N_CRASH_CASES // len(CRASH_SEEDS), 1)
    non_trivial = 0
    for _ in range(cases):
        if run_crash_case(rng) > 1:
            non_trivial += 1
    # the torn offsets must not degenerate into always-empty prefixes
    assert non_trivial >= cases // 4
