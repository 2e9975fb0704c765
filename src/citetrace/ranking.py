"""Deterministic ranking of scored entities by any indicator column."""

from __future__ import annotations

from operator import neg
from typing import Sequence

from .errors import UnknownIndicator, ValidationError
from .indicators import INDICATOR_KEYS, Scores

__all__ = ["rank_entities", "rank_order"]


def rank_order(values: Sequence[float], names: Sequence[str]) -> list[int]:
    """The positions of values, highest value first; ties on the value fall
    back to the name, ascending lexicographically, and then to input order.
    Every ranking sorts with this key."""
    keys = list(zip(map(neg, values), names))
    return sorted(range(len(keys)), key=keys.__getitem__)


def rank_entities(scores: Sequence[Scores], key: str = "T") -> list[Scores]:
    """Sort entities by an indicator, highest first.

    Ordering is byte-reproducible: ties on the sort value fall back to
    the entity name, ascending lexicographically.
    """
    if key not in INDICATOR_KEYS:
        raise UnknownIndicator(f"unknown indicator {key!r}; expected one of {', '.join(INDICATOR_KEYS)}")
    if not scores:
        raise ValidationError("rank_entities needs at least one entity")
    order = rank_order([getattr(row, key) for row in scores], [row.name for row in scores])
    return [scores[i] for i in order]
