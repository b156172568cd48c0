"""Shared result-row protocol for the analysis harnesses.

Every harness returns a list of dataclass rows mixing in :class:`Row`, so
callers can rely on ``as_dict()`` / ``as_tuple()`` uniformly across the
whole of :mod:`repro.analysis` (some rows override ``as_tuple`` to keep
their historical metric-only shape).
"""

from __future__ import annotations

import dataclasses


class Row:
    """Mixin giving analysis dataclass rows a uniform export surface."""

    def as_dict(self) -> dict:
        """Field-name -> value mapping (shallow; nested dicts shared)."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    def as_tuple(self) -> tuple:
        """All field values in declaration order."""
        return tuple(self.as_dict().values())


def coerce_options(options, default_factory) -> list:
    """Normalize a harness ``run()`` argument to a list of options.

    Accepts a single :class:`~repro.runner.ExperimentOptions`, an iterable
    of them, or ``None`` (the harness's default sweep).
    """
    from repro.runner import ExperimentOptions

    if options is None:
        return list(default_factory())
    if isinstance(options, ExperimentOptions):
        return [options]
    return list(options)
