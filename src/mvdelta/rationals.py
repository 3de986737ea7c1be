"""Canonical rationals in the unit interval and their literal syntax.

:class:`Q01` is an exact rational constrained to [0, 1]; there is no
floating point anywhere.  The MV operations on these values live on
:data:`mvdelta.carriers.Q01_CARRIER`, the carrier of the standard
MV-algebra.

Rational literals are written ``p/q`` (no whitespace) with the integer
shorthands ``0`` and ``1``; ``str()`` of a :class:`Q01` produces exactly
that syntax, so values round-trip through reports and the CLI.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["Q01", "ZERO", "ONE", "parse_q01"]


class Q01(Fraction):
    """A rational constrained to [0, 1], stored in lowest terms.

    Subclasses :class:`fractions.Fraction`, so comparisons, hashing and
    arithmetic behave as usual (mixed arithmetic returns plain
    ``Fraction``; only the carrier operations re-wrap results).
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if self < 0 or self > 1:
            raise ValueError(f"rational {Fraction(self)!s} lies outside [0, 1]")
        return self


ZERO = Q01(0)
ONE = Q01(1)

_RAT_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def parse_q01(text: str) -> Q01:
    """Parse ``p/q`` or integer shorthand into a canonical Q01."""
    m = _RAT_RE.match(text)
    if not m:
        raise ValueError(f"malformed rational literal {text!r} (expected p/q)")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal {text!r}")
    return Q01(num, den)
