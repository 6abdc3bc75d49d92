"""The paper's example schema (documents) and its semantic knowledge.

The classes, properties and methods follow Section 2.1 of the paper
verbatim; the semantic knowledge follows Section 2.3 (equivalences E1-E5),
Section 4.2 (the wordCount/largeParagraphs implication) and Example 1
(the ``sameDocument`` join predicate).

Method cost annotations encode the paper's observation that methods are not
uniform-cost: internally encoded path methods are cheap, externally
implemented IR and index operations are expensive per call (but the bulk
variants are cheap per result).
"""

from __future__ import annotations

from repro.datamodel.methods import (
    collect_over_property,
    index_lookup_method,
    path_method,
    python_method,
    same_path_target_method,
    text_contains_method,
    text_retrieve_method,
)
from repro.datamodel.schema import (
    ClassDef,
    InverseLink,
    MethodDef,
    MethodKind,
    PropertyDef,
    Schema,
)
from repro.datamodel.types import BOOL, INT, STRING, object_type, set_of
from repro.optimizer.knowledge import (
    ConditionEquivalence,
    ConditionImplication,
    ExpressionEquivalence,
    QueryMethodEquivalence,
    SchemaKnowledge,
)

__all__ = [
    "document_schema",
    "document_knowledge",
    "DEFAULT_LARGE_PARAGRAPH_THRESHOLD",
    "METHOD_COSTS",
]

#: word-count threshold above which a paragraph is considered "large"
#: (the paper uses 500; the synthetic workload uses a smaller threshold so
#: that databases stay small — the shape of the experiment is unaffected)
DEFAULT_LARGE_PARAGRAPH_THRESHOLD = 40

#: per-call cost annotations (abstract units) used by the optimizer's cost
#: model; externally implemented methods are far more expensive per call
METHOD_COSTS = {
    "document": 1.0,            # internal path method
    "paragraphs": 3.0,          # internal, touches all sections
    "sameDocument": 3.0,        # internal, two document() calls
    "wordCount": 8.0,           # internal but scans the content string
    "contains_string": 25.0,    # external IR call per paragraph
    "retrieve_by_string": 30.0,  # external IR call, one per query
    "select_by_index": 5.0,     # external index lookup, one per query
}


def _word_count_impl(ctx, receiver):
    """Implementation of ``Paragraph.wordCount()``: number of word tokens."""
    content = ctx.value(receiver, "content")
    if content is None:
        return 0
    return len(str(content).split())


def document_schema() -> Schema:
    """Build the Document/Section/Paragraph schema of Section 2.1."""
    schema = Schema("documents")

    document = ClassDef("Document", description="a structured document")
    document.add_property(PropertyDef("title", STRING))
    document.add_property(PropertyDef("author", STRING))
    document.add_property(PropertyDef(
        "sections", set_of(object_type("Section")), target_class="Section"))
    document.add_property(PropertyDef(
        "largeParagraphs", set_of(object_type("Paragraph")),
        target_class="Paragraph", derived=True,
        description="paragraphs of this document whose wordCount exceeds the "
                    "large-paragraph threshold (maintained by the loader)"))
    document.add_method(MethodDef(
        name="paragraphs",
        return_type=set_of(object_type("Paragraph")),
        kind=MethodKind.INTERNAL,
        implementation=collect_over_property("sections", "paragraphs"),
        cost_per_call=METHOD_COSTS["paragraphs"],
        description="all paragraphs of the document"))
    document.add_method(MethodDef(
        name="select_by_index",
        params=(("t", STRING),),
        return_type=set_of(object_type("Document")),
        kind=MethodKind.EXTERNAL,
        class_level=True,
        implementation=index_lookup_method("Document", "title"),
        cost_per_call=METHOD_COSTS["select_by_index"],
        result_cardinality_hint=2,
        description="documents with the given title, via a user-defined index"))
    schema.add_class(document)

    section = ClassDef("Section", description="a section of a document")
    section.add_property(PropertyDef("number", INT))
    section.add_property(PropertyDef("title", STRING))
    section.add_property(PropertyDef(
        "document", object_type("Document"), target_class="Document"))
    section.add_property(PropertyDef(
        "paragraphs", set_of(object_type("Paragraph")), target_class="Paragraph"))
    schema.add_class(section)

    paragraph = ClassDef("Paragraph", description="a paragraph of a section")
    paragraph.add_property(PropertyDef("number", INT))
    paragraph.add_property(PropertyDef(
        "section", object_type("Section"), target_class="Section"))
    paragraph.add_property(PropertyDef("content", STRING))
    paragraph.add_method(MethodDef(
        name="document",
        return_type=object_type("Document"),
        kind=MethodKind.INTERNAL,
        implementation=path_method("section", "document"),
        cost_per_call=METHOD_COSTS["document"],
        description="RETURN section.document"))
    paragraph.add_method(MethodDef(
        name="contains_string",
        params=(("s", STRING),),
        return_type=BOOL,
        kind=MethodKind.EXTERNAL,
        implementation=text_contains_method("Paragraph", "content"),
        cost_per_call=METHOD_COSTS["contains_string"],
        description="does the paragraph content contain the string?"))
    paragraph.add_method(MethodDef(
        name="sameDocument",
        params=(("p", object_type("Paragraph")),),
        return_type=BOOL,
        kind=MethodKind.INTERNAL,
        implementation=same_path_target_method("document"),
        cost_per_call=METHOD_COSTS["sameDocument"],
        description="RETURN (SELF->document() == p->document())"))
    paragraph.add_method(MethodDef(
        name="wordCount",
        return_type=INT,
        kind=MethodKind.INTERNAL,
        implementation=python_method(_word_count_impl, name="wordCount"),
        cost_per_call=METHOD_COSTS["wordCount"],
        description="number of words in the paragraph content"))
    paragraph.add_method(MethodDef(
        name="retrieve_by_string",
        params=(("s", STRING),),
        return_type=set_of(object_type("Paragraph")),
        kind=MethodKind.EXTERNAL,
        class_level=True,
        implementation=text_retrieve_method("Paragraph", "content"),
        cost_per_call=METHOD_COSTS["retrieve_by_string"],
        result_cardinality_hint=25,
        description="all paragraphs containing the string, via the IR engine"))
    schema.add_class(paragraph)

    schema.add_inverse_link(InverseLink(
        source_class="Section", source_property="document",
        target_class="Document", target_property="sections",
        source_cardinality="one", target_cardinality="many"))
    schema.add_inverse_link(InverseLink(
        source_class="Paragraph", source_property="section",
        target_class="Section", target_property="paragraphs",
        source_cardinality="one", target_cardinality="many"))

    schema.validate()
    return schema


def document_knowledge(schema: Schema,
                       large_threshold: int = DEFAULT_LARGE_PARAGRAPH_THRESHOLD,
                       ) -> SchemaKnowledge:
    """The schema-specific semantic knowledge of Sections 2.3 and 4.2.

    E1  p->document()              ≡  p.section.document
    E2  d.title == s               ⇔  d IS-IN Document->select_by_index(s)
    E3  p.section.document IS-IN D ⇔  p.section IS-IN D.sections
    E4  p.section IS-IN S          ⇔  p IS-IN S.paragraphs
    E5  σ[p->contains_string(s)](Paragraph) ≡ Paragraph->retrieve_by_string(s)
    I1  p->wordCount() > T  ⇒  p IS-IN p->document().largeParagraphs
    J1  p->sameDocument(q)  ⇔  p->document() == q->document()
    M1  FROM p IN d->paragraphs()  ≡  FROM p IN d.sections.paragraphs

    E3 and E4 are derived automatically from the schema's inverse links, as
    the paper suggests; M1 from the body of ``Document.paragraphs()``
    (E1's and J1's method bodies declare E1 and J1 the same way).  The
    range-inversion rules (:mod:`repro.optimizer.inversion`) complete it.
    """
    knowledge = SchemaKnowledge(schema)

    knowledge.add(ExpressionEquivalence(
        class_name="Paragraph", variable="p",
        left="p->document()", right="p.section.document",
        name="E1-path-method"))

    knowledge.add(ConditionEquivalence(
        class_name="Document", variable="d",
        left="d.title == s",
        right="d IS-IN Document->select_by_index(s)",
        name="E2-title-index"))

    # E3 and E4 come from the inverse links declared in the schema.
    knowledge.derive_from_inverse_links()

    knowledge.add(QueryMethodEquivalence(
        query="ACCESS p FROM p IN Paragraph WHERE p->contains_string(s)",
        method_call="Paragraph->retrieve_by_string(s)",
        name="E5-retrieve-by-string"))

    knowledge.add(ConditionImplication(
        class_name="Paragraph", variable="p",
        antecedent=f"p->wordCount() > {large_threshold}",
        consequent="p IS-IN p->document().largeParagraphs",
        name="I1-large-paragraphs"))

    knowledge.add(ConditionEquivalence(
        class_name="Paragraph", variable="p",
        left="p->sameDocument(q)",
        right="p->document() == q->document()",
        name="J1-same-document",
        parameter_classes={"q": "Paragraph"}))

    # Each factory-built method declares its own path equivalence (E1 and
    # J1 above are two of them; Document.paragraphs() adds the third), and
    # the maintained inverse links make ranges invertible.
    knowledge.derive_from_method_bodies()
    knowledge.derive_range_inversions()
    return knowledge
