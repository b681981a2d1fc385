"""Decorrelation strategies: magic (the paper's contribution), plus the
Kim, Dayal and Ganski/Wong baselines it compares against."""

from .common import (
    EqualityCorrelation,
    ScalarAggPattern,
    match_outer_agg_subquery,
    match_scalar_agg,
    node_use_is_null_rejecting,
)
from .magic import MagicDecorrelator, apply_ganski_wong, apply_magic
from .kim import apply_kim
from .dayal import apply_dayal

__all__ = [
    "apply_magic",
    "apply_ganski_wong",
    "apply_kim",
    "apply_dayal",
    "MagicDecorrelator",
    "match_scalar_agg",
    "match_outer_agg_subquery",
    "node_use_is_null_rejecting",
    "ScalarAggPattern",
    "EqualityCorrelation",
]
