"""Kernel exceptions with stable error codes.

Every rejection raised by the kernel carries a ``code`` string that the CLI
echoes verbatim, so scripts can match on codes rather than messages.  An
error keeps the values it was raised with as ``detail``; its message,
``CODE: a, b``, or the bare ``CODE`` when it holds no value, is written
when it is read, each value by ``value.format_detail``, so an error that
is caught and never printed formats nothing.
"""

from __future__ import annotations

from .value import format_detail


class KernelError(Exception):
    code = "KERNEL_ERROR"

    @property
    def detail(self) -> tuple:
        return self.args

    def __str__(self) -> str:
        if not self.args:
            return self.code
        return f"{self.code}: " + ", ".join(map(format_detail, self.args))


class ContainsEmpty(KernelError):
    code = "CONTAINS_EMPTY"


class ClosureViolation(KernelError):
    """``node`` is in the set and ``missing``, its predecessor or left
    sibling, is not: ``CLOSURE_VIOLATION: (1), missing (0)``."""
    code = "CLOSURE_VIOLATION"

    node = property(lambda self: self.args[0])
    missing = property(lambda self: self.args[1])

    def __str__(self) -> str:
        return f"{self.code}: {format_detail(self.node)}, missing {format_detail(self.missing)}"


class NotInRep(KernelError):
    code = "NOT_IN_REP"


class NotADescription(KernelError):
    code = "NOT_A_DESCRIPTION"


class NotAFactoring(KernelError):
    code = "NOT_A_FACTORING"


class CardinalityMismatch(KernelError):
    code = "CARDINALITY_MISMATCH"

    index = property(lambda self: self.args[0])


class NotSubtree(KernelError):
    code = "NOT_SUBTREE"


class NotRegular(KernelError):
    code = "NOT_REGULAR"


class LengthMismatch(KernelError):
    code = "LENGTH_MISMATCH"


class InvalidTower(KernelError):
    code = "INVALID_TOWER"


class LevelOutOfRange(KernelError):
    code = "LEVEL_OUT_OF_RANGE"


class NotALimit(KernelError):
    code = "NOT_A_LIMIT"


class CriterionFails(KernelError):
    code = "CRITERION_FAILS"


class OutOfRange(KernelError):
    code = "OUT_OF_RANGE"


class BelowOmega1(KernelError):
    code = "BELOW_OMEGA1"


class DegreeZeroHasNoCompletion(KernelError):
    code = "DEGREE_ZERO_HAS_NO_COMPLETION"


class DegreeZero(KernelError):
    code = "DEGREE_ZERO"


class BadFirstEntry(KernelError):
    code = "BAD_FIRST_ENTRY"


class NotCompletionAt(KernelError):
    code = "NOT_COMPLETION_AT"

    index = property(lambda self: self.args[0])


class RootNotCanonical(KernelError):
    code = "ROOT_NOT_CANONICAL"


class DomainNotTree(KernelError):
    code = "DOMAIN_NOT_TREE"


class TowerViolation(KernelError):
    code = "TOWER_VIOLATION"


class EmptyKeyPresent(KernelError):
    code = "EMPTY_KEY_PRESENT"


class InvalidElement(KernelError):
    code = "INVALID_ELEMENT"


class IncomparableEntries(InvalidElement, TypeError):
    """A node against an entry that is neither a node nor -1, or an entry
    that has no Brouwer-Kleene sort key.  It stays a TypeError for callers
    that catch the uncoded form."""


class MissingEntry(KernelError):
    code = "MISSING_ENTRY"


class NotRespecting(KernelError):
    code = "NOT_RESPECTING"


class BadDescription(KernelError):
    code = "BAD_DESCRIPTION"


class NoTreeFound(KernelError):
    code = "NO_TREE_FOUND"


class MultipleTreesFound(KernelError):
    # would falsify the uniqueness lemma; never an expected outcome
    code = "MULTIPLE_TREES_FOUND"


class CaseViolation(KernelError):
    code = "CASE_VIOLATION"


class ParseError(KernelError):
    code = "PARSE_ERROR"

    line = property(lambda self: self.args[1])
    col = property(lambda self: self.args[2])

    def __str__(self) -> str:
        return f"{self.code}: {self.args[0]}, line {self.line}, col {self.col}"


class ArityError(KernelError):
    code = "ARITY_ERROR"
