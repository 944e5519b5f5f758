"""Value rules declared on dataclass fields.

A field made with `ruled(default, ...)` carries a Rule in its metadata: a
closed or open range, or a set of allowed values, applied to every item
when the value is a tuple or list; a float item must also be finite. Each
dataclass enforces its rules with `check_rules` in __post_init__, and the
config loader reads the same metadata, so a default and its rule are
written once, on the field.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

_BOUNDS = (("ge", operator.ge, ">="), ("gt", operator.gt, ">"), ("le", operator.le, "<="), ("lt", operator.lt, "<"))


@dataclass(frozen=True)
class Rule:
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    among: tuple | None = None

    def violation(self, value) -> str | None:
        """Why value, or an item of it, breaks the rule; None if nothing does."""
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if item is None:
                continue
            if isinstance(item, float) and not math.isfinite(item):
                return f"must be finite, got {item!r}"
            if self.among is not None and item not in self.among:
                return f"must be one of {', '.join(f'{choice!r}' for choice in self.among)}; got {item!r}"
            for name, holds, sign in _BOUNDS:
                limit = getattr(self, name)
                if limit is not None and not holds(item, limit):
                    return f"must be {sign} {limit}, got {item!r}"
        return None


def ruled(default, rule: Rule | None = None, **bounds):
    """A dataclass field with a default and the rule its values keep."""
    return field(default=default, metadata={"rule": rule or Rule(**bounds)})


def rule_of(cls, name: str) -> Rule | None:
    """The rule declared on field name of dataclass cls, if any."""
    return next((f.metadata.get("rule") for f in fields(cls) if f.name == name), None)


def check_rules(obj, error: type[Exception] = ValueError) -> None:
    """Raise error naming the first field of obj whose value breaks its rule."""
    for f in fields(obj):
        rule = f.metadata.get("rule")
        reason = rule and rule.violation(getattr(obj, f.name))
        if reason:
            raise error(f"{f.name} {reason}")
