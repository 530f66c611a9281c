"""Exception types shared across the package."""


class SnHurwitzError(Exception):
    """Base class for all package errors."""


class PartitionParseError(SnHurwitzError, ValueError):
    """Malformed partition text; the offending token is in the message."""


class CeilingError(SnHurwitzError, ValueError):
    """A configured size ceiling was exceeded."""


class SizeMismatchError(SnHurwitzError, ValueError):
    """Two partitions that must have equal size do not."""


class ExactnessError(SnHurwitzError, ArithmeticError):
    """An exact integer division left a remainder (signals an internal bug)."""


class BudgetError(SnHurwitzError, ValueError):
    """A brute-force search space exceeds the configured budget."""


class GenusError(SnHurwitzError, ValueError):
    """Point count and source genus are inconsistent or out of range."""


class HypothesisError(SnHurwitzError, ValueError):
    """Parameters fall outside a theorem's or conjecture's hypothesis range."""


class SupportError(SnHurwitzError, ArithmeticError):
    """A structure-coefficient table disagrees with the count it expands, or
    its moment system is singular."""
