"""Honesty wrapper for bounded homological checks.

Every bounded decision returns a TriState: certified-yes, certified-no,
or unknown (bound exhausted).  Certified verdicts carry a witness or a
named finite criterion in `reason`.
"""

from __future__ import annotations

from dataclasses import dataclass


YES = "certified-yes"
NO = "certified-no"
UNKNOWN = "unknown"


@dataclass
class TriState:
    verdict: str
    bound: int | None = None
    witness: object = None
    reason: str = ""
    value: object = None  # optional payload (e.g. a dimension)

    @property
    def is_yes(self):
        return self.verdict == YES

    @property
    def is_no(self):
        return self.verdict == NO

    @property
    def is_unknown(self):
        return self.verdict == UNKNOWN

    def __bool__(self):
        raise TypeError("TriState is three-valued; test .is_yes / .is_no")

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "bound": self.bound,
            "reason": self.reason,
            "value": None if self.value is None else str(self.value),
            "witness": None if self.witness is None else str(self.witness),
        }


def yes(reason="", bound=None, witness=None, value=None):
    return TriState(YES, bound=bound, witness=witness, reason=reason, value=value)


def no(reason="", bound=None, witness=None, value=None):
    return TriState(NO, bound=bound, witness=witness, reason=reason, value=value)


def unknown(reason="", bound=None, value=None):
    return TriState(UNKNOWN, bound=bound, reason=reason, value=value)


def all_of(parts, bound=None) -> TriState:
    """Conjunction of TriStates, a plain bool counting as a certified
    verdict: the first certified-no part (False: certified-no), else the
    first unknown part, else certified-yes with `bound`."""
    first_unknown = None
    for p in parts:
        if isinstance(p, bool):
            if not p:
                return no("boolean condition fails", bound=bound)
        elif p.is_no:
            return p
        elif p.is_unknown and first_unknown is None:
            first_unknown = p
    if first_unknown is not None:
        return first_unknown
    return yes("all component checks certified", bound=bound)


def agreement(a: TriState, b: TriState, bound=None) -> TriState:
    """Do two verdicts agree?  Unknown when either side is unresolved,
    else certified-yes when they are equal and certified-no when not."""
    if a.is_unknown or b.is_unknown:
        return unknown("a side is unresolved", bound=bound)
    if a.verdict == b.verdict:
        return yes("verdicts agree", bound=bound)
    return no("verdicts differ", bound=bound)
