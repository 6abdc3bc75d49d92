"""Schema layer: classes, properties and method signatures.

A VML class has two facets (see Section 2.1 of the paper):

* the **own type** (``OWNTYPE``) describing the class object itself, which
  may define class-level methods such as ``Document→select_by_index``;
* the **instance type** (``INSTTYPE``) describing the instances, with typed
  properties and instance methods such as ``Paragraph→document()``.

The schema also records inverse-link declarations and optional method
annotations (cost per call, result cardinality) that the optimizer's cost
model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.datamodel.types import ANY, VMLType
from repro.errors import MethodResolutionError, SchemaError

__all__ = [
    "MethodKind",
    "PropertyDef",
    "MethodDef",
    "InverseLink",
    "ClassDef",
    "Schema",
]


class MethodKind:
    """Enumeration of method implementation kinds (plain strings by design
    so that schema definitions remain serializable and easy to inspect)."""

    INTERNAL = "internal"          # encoded against the data model (e.g. path methods)
    EXTERNAL = "external"          # implemented outside the database (IR engine, index)
    PROPERTY_ACCESS = "property"   # system-generated default accessor
    ALL = (INTERNAL, EXTERNAL, PROPERTY_ACCESS)


@dataclass
class PropertyDef:
    """A typed property of the instances of a class."""

    name: str
    vml_type: VMLType
    #: when this property stores OIDs (or a set of OIDs), the target class
    target_class: Optional[str] = None
    #: a derived property holds what a query over other state would compute
    #: (e.g. largeParagraphs); the database does not maintain it — whoever
    #: writes the state it derives from must write it too
    derived: bool = False
    description: str = ""

    def is_reference(self) -> bool:
        """True when the property stores OIDs of another class."""
        return self.target_class is not None

    def __str__(self) -> str:
        return f"{self.name}: {self.vml_type}"


@dataclass
class MethodDef:
    """Signature and implementation of a method.

    ``implementation`` is a callable ``(ctx, receiver, *args)`` where ``ctx``
    is an :class:`~repro.datamodel.database.InvocationContext` giving access
    to the database, and ``receiver`` is an OID for instance methods or the
    class name for class-level (OWNTYPE) methods.
    """

    name: str
    params: tuple[tuple[str, VMLType], ...] = ()
    return_type: VMLType = ANY
    kind: str = MethodKind.INTERNAL
    implementation: Optional[Callable[..., Any]] = None
    #: class-level (OWNTYPE) method when True, instance (INSTTYPE) otherwise
    class_level: bool = False
    #: abstract cost units charged per invocation (cost-model input)
    cost_per_call: float = 1.0
    #: expected cardinality of a set-valued result, if known
    result_cardinality_hint: Optional[float] = None
    description: str = ""

    @property
    def arity(self) -> int:
        return len(self.params)

    def is_external(self) -> bool:
        return self.kind == MethodKind.EXTERNAL

    def signature(self) -> str:
        params = ", ".join(f"{name}: {typ}" for name, typ in self.params)
        return f"{self.name}({params}): {self.return_type}"

    def __str__(self) -> str:
        prefix = "OWN " if self.class_level else ""
        return f"{prefix}{self.signature()} [{self.kind}]"


@dataclass(frozen=True)
class InverseLink:
    """Declares that two reference properties are inverses of each other.

    ``Section.document`` and ``Document.sections`` form an inverse link: a
    section *s* belongs to document *d* exactly when *s* appears in
    ``d.sections``.  The optimizer derives condition-equivalence rules from
    these declarations (Section 4.2, "Equivalent conditions").
    """

    source_class: str
    source_property: str
    target_class: str
    target_property: str
    #: cardinality of the source side: "one" (single OID) or "many" (set)
    source_cardinality: str = "one"
    #: cardinality of the target side
    target_cardinality: str = "many"

    def reversed(self) -> "InverseLink":
        return InverseLink(
            source_class=self.target_class,
            source_property=self.target_property,
            target_class=self.source_class,
            target_property=self.source_property,
            source_cardinality=self.target_cardinality,
            target_cardinality=self.source_cardinality,
        )


@dataclass
class ClassDef:
    """Definition of a class: properties, methods, and its place in the
    inheritance lattice (single inheritance is sufficient for the paper)."""

    name: str
    properties: dict[str, PropertyDef] = field(default_factory=dict)
    instance_methods: dict[str, MethodDef] = field(default_factory=dict)
    class_methods: dict[str, MethodDef] = field(default_factory=dict)
    superclass: Optional[str] = None
    description: str = ""

    def add_property(self, prop: PropertyDef) -> "ClassDef":
        if prop.name in self.properties:
            raise SchemaError(
                f"duplicate property {prop.name!r} in class {self.name!r}")
        self.properties[prop.name] = prop
        return self

    def add_method(self, method: MethodDef) -> "ClassDef":
        table = self.class_methods if method.class_level else self.instance_methods
        if method.name in table:
            raise SchemaError(
                f"duplicate method {method.name!r} in class {self.name!r}")
        table[method.name] = method
        return self

    def property_names(self) -> list[str]:
        return list(self.properties)

    def __str__(self) -> str:
        return f"CLASS {self.name}"


class Schema:
    """A collection of class definitions plus cross-class declarations."""

    def __init__(self, name: str = "schema"):
        self.name = name
        self._classes: dict[str, ClassDef] = {}
        self._inverse_links: list[InverseLink] = []
        #: class name -> {property: link oriented from that property}
        self._links_from: dict[str, dict[str, InverseLink]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_class(self, class_def: ClassDef) -> ClassDef:
        if class_def.name in self._classes:
            raise SchemaError(f"duplicate class {class_def.name!r}")
        self._classes[class_def.name] = class_def
        self._links_from.clear()
        return class_def

    def define_class(self, name: str, superclass: str | None = None,
                     description: str = "") -> ClassDef:
        """Create, register and return an empty class definition."""
        return self.add_class(ClassDef(name=name, superclass=superclass,
                                       description=description))

    def add_inverse_link(self, link: InverseLink) -> InverseLink:
        self._validate_link(link)
        self._inverse_links.append(link)
        self._links_from.clear()
        return link

    def _validate_link(self, link: InverseLink) -> None:
        for cls, prop in ((link.source_class, link.source_property),
                          (link.target_class, link.target_property)):
            class_def = self._classes.get(cls)
            if class_def is None:
                raise SchemaError(f"inverse link refers to unknown class {cls!r}")
            if prop not in class_def.properties:
                raise SchemaError(
                    f"inverse link refers to unknown property {cls}.{prop}")

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def classes(self) -> Mapping[str, ClassDef]:
        return dict(self._classes)

    @property
    def inverse_links(self) -> Sequence[InverseLink]:
        return tuple(self._inverse_links)

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def get_class(self, name: str) -> ClassDef:
        try:
            return self._classes[name]
        except KeyError:
            raise SchemaError(f"unknown class {name!r}") from None

    def class_names(self) -> list[str]:
        return list(self._classes)

    def _class_chain(self, name: str) -> Iterable[ClassDef]:
        """Yield the class and its superclasses, most specific first."""
        current: Optional[str] = name
        seen: set[str] = set()
        while current is not None:
            if current in seen:
                raise SchemaError(f"inheritance cycle involving {current!r}")
            seen.add(current)
            class_def = self.get_class(current)
            yield class_def
            current = class_def.superclass

    def resolve_property(self, class_name: str, prop: str) -> PropertyDef:
        """Resolve *prop* on *class_name*, walking up the inheritance chain."""
        for class_def in self._class_chain(class_name):
            if prop in class_def.properties:
                return class_def.properties[prop]
        raise SchemaError(f"class {class_name!r} has no property {prop!r}")

    def has_property(self, class_name: str, prop: str) -> bool:
        try:
            self.resolve_property(class_name, prop)
            return True
        except SchemaError:
            return False

    def resolve_instance_method(self, class_name: str, method: str) -> MethodDef:
        for class_def in self._class_chain(class_name):
            if method in class_def.instance_methods:
                return class_def.instance_methods[method]
        raise MethodResolutionError(
            f"class {class_name!r} has no instance method {method!r}")

    def resolve_class_method(self, class_name: str, method: str) -> MethodDef:
        for class_def in self._class_chain(class_name):
            if method in class_def.class_methods:
                return class_def.class_methods[method]
        raise MethodResolutionError(
            f"class {class_name!r} has no class method {method!r}")

    def has_instance_method(self, class_name: str, method: str) -> bool:
        try:
            self.resolve_instance_method(class_name, method)
            return True
        except MethodResolutionError:
            return False

    def has_class_method(self, class_name: str, method: str) -> bool:
        try:
            self.resolve_class_method(class_name, method)
            return True
        except MethodResolutionError:
            return False

    def find_inverse(self, class_name: str, prop: str) -> Optional[InverseLink]:
        """Return the inverse link whose source side is ``class_name.prop``."""
        for link in self._inverse_links:
            if link.source_class == class_name and link.source_property == prop:
                return link
            rev = link.reversed()
            if rev.source_class == class_name and rev.source_property == prop:
                return rev
        return None

    def links_from(self, class_name: str) -> Mapping[str, InverseLink]:
        """The inverse links an instance of *class_name* takes part in,
        keyed by its own property and oriented from it (so the link's
        ``target_*`` fields name the other side).  Inherited link
        properties are included; the map is cached until a class or link
        is added."""
        links = self._links_from.get(class_name)
        if links is None:
            links = {}
            chain = {class_def.name for class_def in self._class_chain(class_name)}
            for link in self._inverse_links:
                for side in (link, link.reversed()):
                    if side.source_class in chain:
                        links.setdefault(side.source_property, side)
            self._links_from[class_name] = links
        return links

    # ------------------------------------------------------------------
    # validation / introspection
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check referential integrity of the whole schema.

        Every reference property and every typed object parameter/return must
        name a class that exists, and superclasses must exist.
        """
        for class_def in self._classes.values():
            if class_def.superclass is not None and class_def.superclass not in self._classes:
                raise SchemaError(
                    f"class {class_def.name!r} inherits from unknown class "
                    f"{class_def.superclass!r}")
            for prop in class_def.properties.values():
                if prop.target_class is not None and prop.target_class not in self._classes:
                    raise SchemaError(
                        f"property {class_def.name}.{prop.name} refers to "
                        f"unknown class {prop.target_class!r}")
        for link in self._inverse_links:
            self._validate_link(link)

    def describe(self) -> str:
        """Human-readable schema dump used by examples and the README."""
        lines: list[str] = [f"SCHEMA {self.name}"]
        for class_def in self._classes.values():
            lines.append(f"  CLASS {class_def.name}" +
                         (f" ISA {class_def.superclass}" if class_def.superclass else ""))
            for prop in class_def.properties.values():
                lines.append(f"    PROPERTY {prop}")
            for method in class_def.class_methods.values():
                lines.append(f"    OWN METHOD {method.signature()}")
            for method in class_def.instance_methods.values():
                lines.append(f"    METHOD {method.signature()}")
        for link in self._inverse_links:
            lines.append(
                f"  INVERSE {link.source_class}.{link.source_property} <-> "
                f"{link.target_class}.{link.target_property}")
        return "\n".join(lines)
