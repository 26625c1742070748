"""The one record every verdict of the package returns."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """A named verdict: passed tells whether the claim held, detail is its JSON-ready evidence."""

    name: str
    passed: bool
    detail: dict
