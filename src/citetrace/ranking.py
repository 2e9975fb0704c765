"""Deterministic ranking of scored entities by any indicator column."""

from __future__ import annotations

from typing import Sequence

from .errors import UnknownIndicator, ValidationError
from .indicators import INDICATOR_KEYS, Scores

__all__ = ["rank_entities", "rank_order"]


def rank_order(values: Sequence[float], names: Sequence[str]) -> list[int]:
    """The positions of values, highest value first; ties on the value fall
    back to the name, ascending lexicographically, and then to input order.
    Every ranking sorts this way: by name, then stably by value, which
    builds no key tuple per row."""
    order = sorted(range(len(names)), key=names.__getitem__)
    order.sort(key=values.__getitem__, reverse=True)
    return order


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
