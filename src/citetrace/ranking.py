"""Deterministic ranking of scored entities by any indicator column."""

from __future__ import annotations

from typing import Sequence

from .errors import UnknownIndicator, ValidationError
from .indicators import INDICATOR_KEYS, Scores

__all__ = ["rank_entities"]


def rank_entities(scores: Sequence[Scores], key: str = "T") -> list[Scores]:
    """Sort entities by an indicator, highest first.

    Ordering is byte-reproducible: ties on the sort value fall back to
    the entity name, ascending lexicographically.
    """
    if key not in INDICATOR_KEYS:
        raise UnknownIndicator(f"unknown indicator {key!r}; expected one of {', '.join(INDICATOR_KEYS)}")
    if not scores:
        raise ValidationError("rank_entities needs at least one entity")
    return sorted(scores, key=lambda row: (-getattr(row, key), row.name))
