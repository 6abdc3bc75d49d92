"""Method implementation helpers.

A :class:`~repro.datamodel.schema.MethodDef` carries its implementation as a
callable ``(ctx, receiver, *args)``.  This module provides factories for the
implementation patterns the paper discusses:

* **path methods** — internal methods that follow a chain of reference
  properties (``Paragraph.document() == section.document``);
* **inverse collection methods** — internal methods that collect the members
  of a set-valued property reachable from the receiver
  (``Document.paragraphs()``);
* **index lookup methods** — external class-level methods backed by a
  user-defined index (``Document→select_by_index``);
* **text retrieval / containment methods** — external methods backed by the
  IR engine (``Paragraph→retrieve_by_string``, ``Paragraph.contains_string``);
* **derived comparison methods** — internal methods defined in terms of other
  methods (``Paragraph.sameDocument``).

Keeping these as factories means the example schemas read almost exactly like
the VML class definitions printed in the paper.  The internal factories also
record what they compute as the implementation's ``body`` attribute
(``("path", props)``, ``("collect", (via, collect))`` or
``("same", method)``), from which the optimizer derives each method's
equivalence with the path it follows
(:meth:`repro.optimizer.knowledge.SchemaKnowledge.derive_from_method_bodies`).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.datamodel.oid import OID, is_collection
from repro.errors import MethodInvocationError

__all__ = [
    "path_method",
    "collect_over_property",
    "index_lookup_method",
    "text_retrieve_method",
    "text_contains_method",
    "same_path_target_method",
    "python_method",
    "body_path",
]

MethodImpl = Callable[..., Any]


def path_method(*path: str) -> MethodImpl:
    """Internal method following a property path from the receiver.

    ``path_method("section", "document")`` implements the paper's
    ``Paragraph.document(){ RETURN section.document; }``.  A ``None`` value
    anywhere along the path yields ``None``.
    """

    def implementation(ctx, receiver: OID) -> Any:
        current: Any = receiver
        for step in path:
            if current is None:
                return None
            current = ctx.value(current, step)
        return current

    implementation.__name__ = "path_" + "_".join(path)
    implementation.body = ("path", tuple(path))
    return implementation


def collect_over_property(via: str, collect: str) -> MethodImpl:
    """Internal method that flattens a two-step set-valued path.

    ``collect_over_property("sections", "paragraphs")`` implements
    ``Document.paragraphs()``: the union of the ``paragraphs`` sets of all
    the receiver's ``sections``.
    """

    def implementation(ctx, receiver: OID) -> set:
        result: set = set()
        intermediate = ctx.value(receiver, via)
        if intermediate is None:
            return result
        if isinstance(intermediate, OID):
            intermediate = [intermediate]
        for member in intermediate:
            collected = ctx.value(member, collect)
            if collected is None:
                continue
            if is_collection(collected):
                result.update(collected)
            else:
                result.add(collected)
        return result

    implementation.__name__ = f"collect_{collect}_via_{via}"
    implementation.body = ("collect", (via, collect))
    return implementation


def index_lookup_method(class_name: str, property_name: str) -> MethodImpl:
    """External class-level method performing an exact index lookup.

    Implements ``Document→select_by_index(t)``: return all instances whose
    indexed property equals the argument.
    """

    def implementation(ctx, receiver: str, key: Any) -> set[OID]:
        index = ctx.index(class_name, property_name)
        if index is None:
            raise MethodInvocationError(
                f"select_by_index requires an index on "
                f"{class_name}.{property_name}")
        return index.lookup(key)

    implementation.__name__ = f"index_lookup_{class_name}_{property_name}"
    return implementation


def text_retrieve_method(class_name: str, property_name: str) -> MethodImpl:
    """External class-level method: bulk text retrieval over an IR index.

    Implements ``Paragraph→retrieve_by_string(s)``.
    """

    def implementation(ctx, receiver: str, needle: str) -> set[OID]:
        engine = ctx.text_index(class_name, property_name)
        if engine is None:
            raise MethodInvocationError(
                f"retrieve_by_string requires a text index on "
                f"{class_name}.{property_name}")
        return engine.retrieve(needle)

    implementation.__name__ = f"text_retrieve_{class_name}_{property_name}"
    return implementation


def text_contains_method(class_name: str, property_name: str) -> MethodImpl:
    """External instance method: per-object substring test via the IR engine.

    Implements ``Paragraph.contains_string(s)``.
    """

    def implementation(ctx, receiver: OID, needle: str) -> bool:
        engine = ctx.text_index(class_name, property_name)
        if engine is None:
            # Fall back to reading the property content directly: still an
            # external scan, only without the shared engine's accounting.
            content = ctx.value(receiver, property_name)
            return needle.lower() in str(content).lower()
        return engine.scan_contains(receiver, needle)

    implementation.__name__ = f"text_contains_{class_name}_{property_name}"
    return implementation


def same_path_target_method(method_name: str) -> MethodImpl:
    """Internal parametrized method comparing a derived value of the receiver
    with the same derived value of the parameter object.

    ``same_path_target_method("document")`` implements the paper's
    ``Paragraph.sameDocument(p){ RETURN SELF→document() == p→document(); }``.
    """

    def implementation(ctx, receiver: OID, other: OID) -> bool:
        mine = ctx.invoke(receiver, method_name)
        theirs = ctx.invoke(other, method_name)
        return mine == theirs

    implementation.__name__ = f"same_{method_name}"
    implementation.body = ("same", method_name)
    return implementation


def body_path(implementation: Any) -> tuple[str, ...] | None:
    """The property path whose objects a factory-built method returns — a
    ``path_method``'s path, a ``collect_over_property``'s ``(via,
    collect)`` — or None.  A range over the method's result ranges over
    that path's objects (NULL and the empty set both yield none)."""
    body = getattr(implementation, "body", None)
    if body is None or body[0] not in ("path", "collect"):
        return None
    return tuple(body[1])


def python_method(function: Callable[..., Any],
                  name: str | None = None) -> MethodImpl:
    """Wrap an arbitrary Python callable ``(ctx, receiver, *args)``.

    Provided for application schemas that need behaviour not covered by the
    factories above (e.g. ``wordCount``)."""

    if name is not None:
        function.__name__ = name
    return function
