"""Kernel exceptions with stable error codes.

Every rejection raised by the kernel carries a ``code`` string that the CLI
echoes verbatim, so scripts can match on codes rather than messages.
"""

from __future__ import annotations


class KernelError(Exception):
    code = "KERNEL_ERROR"

    def __init__(self, *detail):
        self.detail = detail
        super().__init__(f"{self.code}: " + ", ".join(map(self._form, detail)))

    _form = str  # how the message writes each detail


def _node_form(e) -> str:
    """e as the grammar writes it if it is a node, else str(e)."""
    from .grammar import format_node  # imported here: grammar imports this module
    return format_node(e) if isinstance(e, (tuple, list)) else str(e)


class ContainsEmpty(KernelError):
    code = "CONTAINS_EMPTY"


class ClosureViolation(KernelError):
    code = "CLOSURE_VIOLATION"

    def __init__(self, node, missing):
        self.node = node
        self.missing = missing
        fmt = lambda n: "(" + " ".join(str(i) for i in n) + ")"
        super().__init__(fmt(node), f"missing {fmt(missing)}")


class NotInRep(KernelError):
    code = "NOT_IN_REP"


class NotADescription(KernelError):
    code = "NOT_A_DESCRIPTION"


class NotAFactoring(KernelError):
    code = "NOT_A_FACTORING"


class CardinalityMismatch(KernelError):
    code = "CARDINALITY_MISMATCH"

    def __init__(self, index):
        self.index = index
        super().__init__(index)


class NotSubtree(KernelError):
    code = "NOT_SUBTREE"


class NotRegular(KernelError):
    code = "NOT_REGULAR"

    def __init__(self, index):
        self.index = index
        super().__init__(index)


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

    def __init__(self, index):
        self.index = index
        super().__init__(index)


class RootNotCanonical(KernelError):
    code = "ROOT_NOT_CANONICAL"


class DomainNotTree(KernelError):
    code = "DOMAIN_NOT_TREE"

    _form = staticmethod(lambda q: "(" + " ".join(map(_node_form, q)) + ")")


class TowerViolation(KernelError):
    code = "TOWER_VIOLATION"

    def __init__(self, where):
        self.where = where
        super().__init__(where)


class EmptyKeyPresent(KernelError):
    code = "EMPTY_KEY_PRESENT"


class InvalidElement(KernelError):
    code = "INVALID_ELEMENT"


class IncomparableEntries(InvalidElement, TypeError):
    """A node against an entry that is neither a node nor -1, or an entry
    that has no Brouwer-Kleene sort key.  It stays a TypeError for callers
    that catch the uncoded form."""

    _form = staticmethod(_node_form)


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

    def __init__(self, message, line=1, col=1):
        self.line = line
        self.col = col
        super().__init__(message, f"line {line}", f"col {col}")


class ArityError(KernelError):
    code = "ARITY_ERROR"
