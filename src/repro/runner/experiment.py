"""Declarative experiment specs for the unified runner.

An :class:`ExperimentOptions` names one *functional* simulation -- which
cipher kernel, at which ISA feature level, over which session bytes -- and
an :class:`Experiment` pairs it with one machine configuration for a
*timing* run.  Every figure in the paper is a grid of such pairs; the
runner deduplicates the functional work (one dynamic trace per options
value) and fans the timing runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.isa import Features
from repro.sim.config import BASE4W, MachineConfig

DEFAULT_SESSION_BYTES = 1024

#: Valid values for :attr:`ExperimentOptions.kind`.
KINDS = ("encrypt", "decrypt", "setup")


def default_plaintext(session_bytes: int) -> bytes:
    """The suite's standard sample payload (``i & 0xFF``)."""
    return bytes(i & 0xFF for i in range(session_bytes))


@dataclass(frozen=True)
class ExperimentOptions:
    """One functional kernel run, fully determined.

    ``key``, ``iv`` and ``plaintext`` default to the suite's standard
    patterns so that two modules asking for the same cipher/features/length
    share one trace.  ``kind='setup'`` runs the cipher's key-setup routine
    instead of the encryption kernel (``session_bytes``/``plaintext`` are
    ignored there).

    ``features`` selects the kernel; the runner's content fingerprint
    hashes the program that kernel emits, not the level's label, so two
    levels that emit the same program over the same inputs (NOROT and ROT
    for a cipher without rotates) are one run with one set of cache
    records.

    *How* an experiment runs -- the execution backend and the timing
    engine -- is the runner's choice (``Runner(backend=, timing_engine=)``),
    never an option: results are bit-identical on every stack, so the same
    cache records serve them all.
    """

    cipher: str
    features: Features = Features.ROT
    session_bytes: int = DEFAULT_SESSION_BYTES
    key: bytes | None = None
    iv: bytes | None = None
    plaintext: bytes | None = None
    base_offset: int = 0
    record_values: bool = False
    kind: str = "encrypt"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, not {self.kind!r}")

    def resolved_plaintext(self) -> bytes:
        if self.plaintext is not None:
            return self.plaintext
        return default_plaintext(self.session_bytes)

    def with_(self, **changes) -> "ExperimentOptions":
        """Return a modified copy (dataclasses.replace wrapper)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class Experiment:
    """One timing measurement: a functional run scheduled on a machine."""

    options: ExperimentOptions
    config: MachineConfig = BASE4W


def experiment_grid(
    ciphers,
    configs,
    **option_kwargs,
) -> list[Experiment]:
    """The paper's standard sweep shape: every cipher on every machine.

    Experiments for one cipher are adjacent so callers can slice the
    runner's order-preserving result list by ``len(configs)``.
    """
    return [
        Experiment(ExperimentOptions(cipher=name, **option_kwargs), config)
        for name in ciphers
        for config in configs
    ]
