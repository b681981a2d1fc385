"""SQL value model and three-valued logic (3VL).

SQL values are represented by plain Python objects:

* ``None``  -> SQL NULL
* ``bool``  -> SQL BOOLEAN
* ``int``   -> SQL INTEGER
* ``float`` -> SQL DOUBLE
* ``str``   -> SQL VARCHAR (also used for DATE in ISO format, which keeps
  lexicographic ordering consistent with chronological ordering)

Truth values in predicates are ``True``, ``False`` and ``None`` (UNKNOWN).
The helpers in this module centralise NULL propagation so that the executor,
the rewrite null-rejection analysis, and tests all share one definition.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from .errors import SchemaError

#: Truth value type alias used in signatures: True / False / None (UNKNOWN).
Truth = Optional[bool]


#: What a NaN -- stored or computed -- is refused with.
_NAN = "expected FLOAT, got NaN"


class SQLType(enum.Enum):
    """Declared column types. Runtime values are duck-typed (see module doc);
    the declared type is used for validation on insert and for display."""

    INT = "INT"
    FLOAT = "FLOAT"
    STR = "STR"
    BOOL = "BOOL"
    DATE = "DATE"

    def validate(self, value: Any) -> Any:
        """Check (and mildly coerce) ``value`` for this type.

        Returns the stored representation or raises :class:`SchemaError`.
        A non-NULL value is stored as exactly one class per type (``int``,
        ``float``, ``str`` for STR and DATE, ``bool``): an int becomes a
        float in a FLOAT column, and an instance of a subclass of ``int``
        or ``str`` (an ``IntEnum``, a ``str`` enum) the plain value it
        holds. NaN is refused. NULL is accepted for every type; nullability
        is enforced at the schema level, not here.
        """
        if value is None:
            return None
        if self is SQLType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected INT, got {value!r}")
            return int.__int__(value)
        if self is SQLType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected FLOAT, got {value!r}")
            if value != value:
                # NaN equals nothing, itself included: a stored NaN would
                # join itself through a hash index but not through a scan.
                raise SchemaError(_NAN)
            return float(value)
        if self is SQLType.STR or self is SQLType.DATE:
            if not isinstance(value, str):
                raise SchemaError(f"expected {self.value}, got {value!r}")
            # Not ``str(value)``: a ``str`` enum's ``__str__`` is its name.
            return str.__str__(value)
        if self is SQLType.BOOL:
            if not isinstance(value, bool):
                raise SchemaError(f"expected BOOL, got {value!r}")
            return value
        raise AssertionError(f"unhandled type {self}")


def tv_not(a: Truth) -> Truth:
    """3VL NOT: NOT UNKNOWN = UNKNOWN."""
    if a is None:
        return None
    return not a


def tv_and(a: Truth, b: Truth) -> Truth:
    """3VL AND: FALSE dominates, UNKNOWN otherwise propagates."""
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


_NUMBERS = frozenset((int, float))


def comparable_classes(classes: set) -> bool:
    """The rule of comparability, over the classes of non-NULL values (two
    operands, or a whole column): may any two of them be compared? Values
    of one class may, and int with float; nothing else -- ``bool`` is its
    own class here, not Python's kind of ``int``."""
    return len(classes) <= 1 or classes <= _NUMBERS


def _check_comparable(a: Any, b: Any) -> None:
    if not comparable_classes({a.__class__, b.__class__}):
        raise SchemaError(f"cannot compare {a!r} with {b!r}")


# The comparisons below call ``_check_comparable`` only when the operands'
# classes differ: a SQL value is a bool, an int, a float or a str (module
# doc), and two values of one of those classes are always comparable. A
# mismatch is either int against float or an error, and the check tells
# which. Every error names the operands left, then right.


def sql_eq(a: Any, b: Any) -> Truth:
    """SQL ``=``: NULL if either operand is NULL."""
    if a is None or b is None:
        return None
    if a.__class__ is not b.__class__:
        _check_comparable(a, b)
    return a == b


def sql_ne(a: Any, b: Any) -> Truth:
    """SQL ``<>``."""
    return tv_not(sql_eq(a, b))


def sql_lt(a: Any, b: Any) -> Truth:
    """SQL ``<``."""
    if a is None or b is None:
        return None
    if a.__class__ is not b.__class__:
        _check_comparable(a, b)
    return a < b


def sql_le(a: Any, b: Any) -> Truth:
    """SQL ``<=``."""
    if a is None or b is None:
        return None
    if a.__class__ is not b.__class__:
        _check_comparable(a, b)
    return a <= b


def sql_gt(a: Any, b: Any) -> Truth:
    """SQL ``>``."""
    if a is None or b is None:
        return None
    if a.__class__ is not b.__class__:
        _check_comparable(a, b)
    return a > b


def sql_ge(a: Any, b: Any) -> Truth:
    """SQL ``>=``."""
    if a is None or b is None:
        return None
    if a.__class__ is not b.__class__:
        _check_comparable(a, b)
    return a >= b


def sql_is_not_distinct(a: Any, b: Any) -> Truth:
    """Null-safe equality (``<=>``): NULL matches NULL, never UNKNOWN.

    Used by magic decorrelation's correlated-input join: a NULL correlation
    binding must still find its (count = 0 / NULL) row in the decorrelated
    subquery result.
    """
    if a is None or b is None:
        return a is None and b is None
    if a.__class__ is not b.__class__:
        _check_comparable(a, b)
    return a == b


#: Comparison operator name -> implementation. Shared by evaluator and tests.
COMPARISONS = {
    "=": sql_eq,
    "<>": sql_ne,
    "!=": sql_ne,
    "<": sql_lt,
    "<=": sql_le,
    ">": sql_gt,
    ">=": sql_ge,
    "<=>": sql_is_not_distinct,
}


def not_nan(value: Any) -> Any:
    """``value``, unless it is a float NaN (``inf - inf``, ``0 * inf``):
    then the :class:`SchemaError` a stored NaN gets, because a NaN equals
    nothing and would group, join and deduplicate as no value does.
    Arithmetic and SUM / AVG pass their float results through it."""
    if type(value) is float and value != value:
        raise SchemaError(_NAN)
    return value


def sql_add(a: Any, b: Any) -> Any:
    """SQL ``+`` with NULL propagation."""
    if a is None or b is None:
        return None
    return not_nan(a + b)


def sql_sub(a: Any, b: Any) -> Any:
    """SQL ``-`` with NULL propagation."""
    if a is None or b is None:
        return None
    return not_nan(a - b)


def sql_mul(a: Any, b: Any) -> Any:
    """SQL ``*`` with NULL propagation."""
    if a is None or b is None:
        return None
    return not_nan(a * b)


def sql_div(a: Any, b: Any) -> Any:
    """SQL ``/`` with NULL propagation; division by zero yields NULL
    (a pragmatic choice also made by several analytical engines)."""
    if a is None or b is None:
        return None
    if b == 0:
        return None
    return not_nan(a / b)


#: Arithmetic operator name -> implementation.
ARITHMETIC = {
    "+": sql_add,
    "-": sql_sub,
    "*": sql_mul,
    "/": sql_div,
}


def sql_like(value: Any, pattern: Any) -> Truth:
    """SQL ``LIKE`` with ``%`` and ``_`` wildcards (no escape support)."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise SchemaError("LIKE requires string operands")
    return _like_match(value, pattern)


def _like_match(value: str, pattern: str) -> bool:
    # Iterative matcher with backtracking on '%', linear in practice.
    vi, pi = 0, 0
    star_pi, star_vi = -1, 0
    while vi < len(value):
        # '%' must be tested first: a literal '%' in the *value* must not be
        # consumed by the literal-match branch.
        if pi < len(pattern) and pattern[pi] == "%":
            star_pi, star_vi = pi, vi
            pi += 1
        elif pi < len(pattern) and (pattern[pi] == "_" or pattern[pi] == value[vi]):
            vi += 1
            pi += 1
        elif star_pi >= 0:
            star_vi += 1
            vi = star_vi
            pi = star_pi + 1
        else:
            return False
    while pi < len(pattern) and pattern[pi] == "%":
        pi += 1
    return pi == len(pattern)


def sort_key(value: Any) -> tuple:
    """Total-order key placing NULLs first, then by type class, then value.

    Used for ORDER BY and for deterministic result comparison in tests.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, value)
