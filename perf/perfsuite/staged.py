"""Replay one read statement stage by stage through the layers' public
functions, each call wrapped in a benchmark-side span.

``statement`` -> ``vql.parse`` -> ``vql.analyze`` -> ``algebra.translate``
-> ``optimizer.search`` -> ``physical.compile`` -> ``physical.execute``

The front end skips the first five stages when its statement LRU and plan
cache hit.  The replay therefore plans a statement exactly when the front
end did — the caller reads that off ``PlanCache.snapshot()`` around the
front-end call — and otherwise goes straight to ``physical.execute`` with
the executable it prepared last time, so the self-time shares describe the
work the front end really did, under whatever policy its cache has.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any

from repro.algebra.translate import translate_query
from repro.service.prepared import prepare_plan
from repro.session import Session
from repro.vql.analyzer import analyze_statement
from repro.vql.bindings import resolve_bindings
from repro.vql.lexer import tokenize
from repro.vql.parser import parse_statement

from perfsuite.ops import Op
from perfsuite.spans import Span, SpanLog


@dataclass
class _Prepared:
    parameters: tuple
    executable: Any
    output_ref: str


class StagedPipeline:
    """The stage-by-stage twin of ``Cursor.execute`` + ``fetchall`` for
    queries on one database."""

    def __init__(self, connection, knowledge, log: SpanLog):
        self.database = connection.database
        self.schema = self.database.schema
        # a Session generates the same schema-specific optimizer the
        # connection's service uses (same knowledge, sequential plans)
        self.optimizer = Session(self.database, knowledge=knowledge,
                                 parallelism=1).optimizer
        self.log = log
        self._prepared: dict[str, _Prepared] = {}
        #: OptimizerStatistics of every optimizer.search span, in order
        self.searches: list = []

    def run(self, op: Op, statement: int, planned: bool) -> tuple[list, Span, float]:
        """Execute *op*, through every stage if the front end *planned* it
        (or the replay has never seen its text); returns its output values,
        the root span and the seconds of the ``physical.execute`` stage."""
        log = self.log
        entry = None if planned else self._prepared.get(op.sql)
        root = log.begin("statement", statement)
        if entry is None:
            span = log.begin("vql.parse", statement, root)
            tokenize(op.sql)
            parsed = parse_statement(op.sql)
            log.end(span)
            span = log.begin("vql.analyze", statement, root)
            analyzed = analyze_statement(parsed, self.schema).query
            log.end(span)
            span = log.begin("algebra.translate", statement, root)
            translation = translate_query(analyzed)
            log.end(span)
            span = log.begin("optimizer.search", statement, root)
            optimization = self.optimizer.optimize(translation.plan)
            log.end(span)
            self.searches.append(optimization.statistics)
            span = log.begin("physical.compile", statement, root)
            executable = prepare_plan(optimization.best_plan, self.database)
            log.end(span)
            entry = self._prepared[op.sql] = _Prepared(
                analyzed.parameters, executable, translation.output_ref)
        span = log.begin("physical.execute", statement, root)
        bindings = resolve_bindings(entry.parameters, op.params)
        with self.database.snapshot_scope():
            if op.fetch is None:
                rows = entry.executable.run(bindings)
            else:
                iterator = entry.executable.open()
                with entry.executable.binding_scope(bindings):
                    rows = list(islice(iterator, op.fetch))
                iterator.close()
        log.end(span)
        log.end(root)
        ref = entry.output_ref
        return [row.get(ref) for row in rows], root, span.seconds
