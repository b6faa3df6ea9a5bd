"""Exception hierarchy shared by the parser, compiler, and engine, and the
helpers that word an input token in an error message."""

import re

# an error line echoes at most this many characters of one input token
CLIP = 40

# what `int()` accepts; such a token fails only above the digit limit
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def clip(token: str) -> str:
    """The token quoted, cut to `CLIP` characters when longer."""
    if len(token) <= CLIP:
        return repr(token)
    return "%r... (%d characters)" % (token[:CLIP], len(token))


def well_formed_integer(token: str) -> bool:
    """True when `token` has the form `int()` accepts, so that a ValueError
    from `int(token)` means that the integer is too long."""
    return _INTEGER.fullmatch(token) is not None


def integer_error(token: str) -> str:
    """Why `int(token)` raised."""
    if well_formed_integer(token):
        return "integer %s is too large" % clip(token)
    return "bad integer token %s" % clip(token)


class XcspError(Exception):
    """Base class for all toolchain errors."""


class XmlError(XcspError):
    """Malformed XML; carries line/column when the underlying parser knows them."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column or 0)
        super().__init__(message)
        self.line = line
        self.column = column


class StructuralError(XcspError):
    """Well-formed XML that violates the XCSP document structure."""


class FormatError(XcspError):
    """Bad micro-syntax inside a tag (integer sets, tuple lists, expressions)."""


class ResolutionError(XcspError):
    """A by-name reference does not resolve, or resolves inconsistently."""


class UnsupportedExtensionError(XcspError):
    """WCSP / QCSP content: detected and refused, never silently ignored."""


class CompileError(XcspError):
    """A resolved constraint cannot be lowered to propagators."""


class EvalError(XcspError):
    """Expression evaluation failed (division by zero, overflow, bad pow)."""
