"""Tunable search bounds, overridable per call or via the environment."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigError

ENV_PERIOD_BOUND = "GH_HOMOTOPY_PERIOD_BOUND"


@dataclass(frozen=True)
class Options:
    """Search bounds for the semi-decision procedures.

    homotopy_period_bound: max multiplier M of the tail-period lcm tried
        when searching for a periodic null-homotopy.
    map_period_bound: multiplier used when enumerating a basis of
        periodic-tailed chain maps between two unbounded complexes.
    iso_exhaustive_dim: exhaust the hom space for an isomorphism when it
        has at most this many basis elements; beyond it, random search.
    iso_random_tries: retry cap for the random isomorphism search.
    periodicity_bound: how far syzygy/cosyzygy towers are followed before
        giving up on closing a periodic tail.
    shift_range: generator families are closed under shifts in [-r, r].
    gorenstein_bound: resolution length tried by the Gorenstein check.
    """

    homotopy_period_bound: int = 4
    map_period_bound: int = 2
    iso_exhaustive_dim: int = 12
    iso_random_tries: int = 500
    periodicity_bound: int = 8
    shift_range: int = 3
    gorenstein_bound: int = 8


def default_options() -> Options:
    """Options honoring the environment override for the period bound,
    which must be an integer of at least 1."""
    raw = os.environ.get(ENV_PERIOD_BOUND)
    if raw is None:
        return Options()
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ConfigError(f"{ENV_PERIOD_BOUND}={raw!r} is not an integer of at least 1")
    return Options(homotopy_period_bound=bound)
