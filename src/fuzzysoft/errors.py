"""Exception hierarchy shared across the package."""

from __future__ import annotations


class FuzzySoftError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FuzzySoftError):
    """A domain object was constructed from invalid data; ``index`` is the
    position of the offending item, when there is one."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ConfigError(ValidationError, ValueError):
    """A ``CheckConfig`` field cannot be honoured.  It is a ``ValueError``
    too, so ``run_cli`` reports it as a usage error (exit 2)."""


class UniverseMismatchError(FuzzySoftError):
    """A binary set operation was applied to sets over different universes."""


class TagCollisionError(FuzzySoftError):
    """Two distinct parameter pairs produced the same canonical tag with
    membership values more than ``CLAMP_TOLERANCE`` apart."""


class ProductSizeError(FuzzySoftError):
    """A binary set operation would form more tag pairs than ``MAX_PAIRS``
    or build more membership values than ``MAX_ARRAY_VALUES``."""


class ArityError(FuzzySoftError):
    """A connective was applied with the wrong number of arguments."""


class CodomainError(FuzzySoftError):
    """A connective produced a value outside [0, 1], at ``index`` of its output."""

    def __init__(self, message: str, index: tuple[int, ...] = ()):
        super().__init__(message)
        self.index = index


class UnknownBuiltinError(FuzzySoftError):
    """The requested builtin connective name does not exist."""


class MissingLabelError(FuzzySoftError):
    """A per-parameter negation family has no entry for a required label."""


class CandidateEvaluationError(FuzzySoftError):
    """A candidate connective raised while being evaluated by the
    verification engine; ``point`` holds the offending argument tuple."""

    def __init__(self, message: str, point: tuple[float, ...]):
        super().__init__(message)
        self.point = point


class DocumentError(FuzzySoftError):
    """A serialized fuzzy-soft-set document failed to load or validate.

    ``json_path`` points at the offending field, e.g. ``parameters.a1.u2``.
    """

    def __init__(self, message: str, json_path: str | None = None):
        if json_path is not None:
            message = f"{message} (at {json_path})"
        super().__init__(message)
        self.json_path = json_path


class DslError(FuzzySoftError):
    """Base for expression/script language errors; carries a source span."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        if self.span is not None:
            return f"{self.span.line}:{self.span.column}: {self.message}"
        return self.message


class ParseError(DslError):
    """Tokenizer or parser rejected the input."""


class UndefinedNameError(ParseError):
    """A script referenced an identifier that is not defined."""


class EvalError(DslError):
    """Expression or script evaluation failed."""


class DivisionByZeroError(EvalError):
    """A division node was evaluated with a zero divisor."""


class UnboundVariableError(EvalError):
    """An expression referenced a variable with no bound value."""


class ScriptRuntimeError(EvalError):
    """A set operation failed while executing a script statement."""
