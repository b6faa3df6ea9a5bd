"""XCSP 2.1 toolchain: parser, constraint compiler, finite-domain solver."""

from .compiler import Problem, PropagatorSpec, compile_instance
from .errors import (
    CompileError,
    EvalError,
    FormatError,
    ResolutionError,
    StructuralError,
    UnsupportedExtensionError,
    XcspError,
    XmlError,
)
from .intset import IntegerSet
from .model import (
    InstanceModel,
    ResolvedInstance,
    parse_instance,
    parse_integer_set,
    parse_tuples,
    resolve_references,
)
from .search import BranchStrategy, Engine, SearchStats
from .verify import verify_solution

__all__ = [
    "BranchStrategy",
    "CompileError",
    "Engine",
    "EvalError",
    "FormatError",
    "InstanceModel",
    "IntegerSet",
    "Problem",
    "PropagatorSpec",
    "ResolvedInstance",
    "ResolutionError",
    "SearchStats",
    "StructuralError",
    "UnsupportedExtensionError",
    "XcspError",
    "XmlError",
    "compile_instance",
    "parse_instance",
    "parse_integer_set",
    "parse_tuples",
    "resolve_references",
    "verify_solution",
]

__version__ = "0.1.0"
