"""Shared Pass/Fail/Inconclusive verdict type for the checker batteries."""

import math

import numpy as np


def _jsonable(v):
    """v as plain JSON values, non-finite floats as "inf", "-inf", "nan"."""
    if isinstance(v, (np.ndarray, np.floating, np.integer)):
        v = v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if hasattr(v, "to_json"):
        return _jsonable(v.to_json())
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


class Verdict:
    """Checker outcome.

    status is "Pass", "Fail" (with a re-checkable witness) or
    "Inconclusive" (with a reason code); diagnostics is a JSON-friendly
    dict of whatever the checker measured along the way.
    """

    PASS = "Pass"
    FAIL = "Fail"
    INCONCLUSIVE = "Inconclusive"

    __slots__ = ("status", "witness", "reason", "diagnostics")

    def __init__(self, status, witness=None, reason=None, diagnostics=None):
        if status not in (self.PASS, self.FAIL, self.INCONCLUSIVE):
            raise ValueError("bad verdict status %r" % (status,))
        if status == self.FAIL and witness is None:
            raise ValueError("Fail verdicts carry a witness")
        if status == self.INCONCLUSIVE and not reason:
            raise ValueError("Inconclusive verdicts carry a reason")
        self.status = status
        self.witness = witness
        self.reason = reason
        self.diagnostics = diagnostics or {}

    @classmethod
    def passed(cls, **diag):
        return cls(cls.PASS, diagnostics=diag)

    @classmethod
    def failed(cls, witness, **diag):
        return cls(cls.FAIL, witness=witness, diagnostics=diag)

    @classmethod
    def inconclusive(cls, reason, **diag):
        return cls(cls.INCONCLUSIVE, reason=reason, diagnostics=diag)

    @property
    def ok(self):
        return self.status == self.PASS

    def __repr__(self):
        extra = ""
        if self.reason:
            extra = ", reason=%r" % self.reason
        return "Verdict(%s%s)" % (self.status, extra)

    def to_json(self):
        return {
            "status": self.status,
            "witness": _jsonable(self.witness),
            "reason": self.reason,
            "diagnostics": _jsonable(self.diagnostics),
        }
