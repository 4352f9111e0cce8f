"""Validation reports: violations are data, not exceptions.

Checkers (``validate_groupoid``, ``check_ruth``, ``check_vbgroupoid``, ...)
return a :class:`Report` listing every violated axiom together with a witness.
Construction preconditions that must hold call :meth:`Report.require`, which
raises :class:`InvalidStructureError` carrying the report; a precondition that fails
on one known witness raises :func:`violation_error`.

The expensive checkers (``validate_groupoid``, ``check_ruth``, ``check_vbgroupoid``,
``check_vbmap``) are wrapped in :func:`checked_once`: within a process each of them
runs once per distinct value that passes, and a value equal to one that
already passed gets an empty report at once.  This relies on the checked classes
being frozen dataclasses whose equality covers every field a checker reads; their
dict-valued fields (``comp``, ``gamma``, ``m_maps``) must not be changed in place
after construction.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable


class InvalidStructureError(ValueError):
    """A structural precondition failed; carries the offending report."""

    def __init__(self, context: str, report: "Report"):
        self.context = context
        self.report = report
        lines = [f"{context}: {len(report.violations)} violation(s)"]
        lines += [f"  - {v}" for v in report.violations[:8]]
        if len(report.violations) > 8:
            lines.append(f"  ... and {len(report.violations) - 8} more")
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class Violation:
    check: str
    witness: tuple
    detail: str = ""

    def __str__(self) -> str:
        w = ", ".join(repr(x) for x in self.witness)
        msg = f"{self.check} at ({w})"
        return f"{msg}: {self.detail}" if self.detail else msg


@dataclass
class Report:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, witness: tuple, detail: str = "") -> None:
        self.violations.append(Violation(check, witness, detail))

    def extend(self, other: "Report") -> None:
        self.violations.extend(other.violations)

    def require(self, context: str) -> None:
        if not self.ok:
            raise InvalidStructureError(context, self)

    def to_json(self) -> list[dict]:
        return [
            {"check": v.check, "witness": [repr(x) for x in v.witness], "detail": v.detail}
            for v in self.violations
        ]


def violation_error(context: str, check: str, witness: tuple, detail: str = "") -> InvalidStructureError:
    """The error for a precondition that fails with the single violation ``check`` at ``witness``."""
    return InvalidStructureError(context, Report([Violation(check, witness, detail)]))


def checked_once(check: Callable[[Any], Report]) -> Callable[[Any], Report]:
    """Run ``check`` once per distinct passing value in this process.

    A value equal to one that already passed returns a fresh, empty :class:`Report`
    without running ``check``; any other value is checked in full, and joins the
    remembered values only if its report is ok, so a failing value is checked (and
    its witnesses found) again on every call.  Passing values are held weakly, so
    the memo keeps nothing alive.  Equality must decide the report: a value whose
    dict fields were mutated in place after it passed would be taken for the value
    it was.  ``__wrapped__`` is the undecorated checker.
    """
    passed: weakref.WeakSet = weakref.WeakSet()

    @functools.wraps(check)
    def checker(value) -> Report:
        if value in passed:
            return Report()
        rep = check(value)
        if rep.ok:
            passed.add(value)
        return rep

    return checker
