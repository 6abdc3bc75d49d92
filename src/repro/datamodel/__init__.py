"""Object-oriented data model substrate (the stand-in for VODAK/VML).

Public surface:

* type system (:mod:`repro.datamodel.types`),
* schema definitions (:mod:`repro.datamodel.schema`),
* the database itself (:mod:`repro.datamodel.database`),
* method-implementation factories (:mod:`repro.datamodel.methods`),
* indexes and the external IR engine (:mod:`repro.datamodel.indexes`,
  :mod:`repro.datamodel.ir`).
"""

from repro.datamodel.database import Database, InvocationContext
from repro.datamodel.indexes import HashIndex, IndexRegistry, SortedIndex
from repro.datamodel.ir import InvertedTextIndex, tokenize
from repro.datamodel.objects import DatabaseObject
from repro.datamodel.oid import OID, OIDAllocator
from repro.datamodel.schema import (
    ClassDef,
    InverseLink,
    MethodDef,
    MethodKind,
    PropertyDef,
    Schema,
)
from repro.datamodel.statistics import DatabaseStatistics
from repro.datamodel.types import (
    ANY,
    BOOL,
    INT,
    OID_TYPE,
    REAL,
    STRING,
    ArrayType,
    DictionaryType,
    ObjectType,
    PrimitiveType,
    SetType,
    TupleType,
    VMLType,
    array_of,
    dictionary_of,
    infer_type,
    object_type,
    set_of,
    tuple_of,
)

__all__ = [
    "Database",
    "InvocationContext",
    "HashIndex",
    "SortedIndex",
    "IndexRegistry",
    "InvertedTextIndex",
    "tokenize",
    "DatabaseObject",
    "OID",
    "OIDAllocator",
    "ClassDef",
    "InverseLink",
    "MethodDef",
    "MethodKind",
    "PropertyDef",
    "Schema",
    "DatabaseStatistics",
    "VMLType",
    "PrimitiveType",
    "ObjectType",
    "SetType",
    "ArrayType",
    "TupleType",
    "DictionaryType",
    "STRING",
    "INT",
    "REAL",
    "BOOL",
    "OID_TYPE",
    "ANY",
    "set_of",
    "array_of",
    "tuple_of",
    "dictionary_of",
    "object_type",
    "infer_type",
]
