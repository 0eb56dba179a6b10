"""Exception hierarchy for the FlowValve reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class. Subclasses are grouped by subsystem:
simulation kernel, configuration/policy front end, NIC model, and
scheduling runtime.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "ProcessError",
    "ConfigError",
    "PolicyError",
    "ParseError",
    "ValidationError",
    "NicError",
    "BufferExhausted",
    "SchedulingError",
    "UnknownClassError",
    "CapacityError",
    "CampaignError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel was misused.

    Examples: scheduling an event in the past, running a simulator that
    has already finished, or re-entrant ``run()`` calls.
    """


class ProcessError(SimulationError):
    """A simulation process (generator) misbehaved.

    Raised when a process yields an object the kernel does not
    understand, or when a dead process is resumed.
    """


class ConfigError(ReproError):
    """Base class for configuration problems (policies, topology)."""


class PolicyError(ConfigError):
    """A QoS policy is structurally invalid.

    Examples: weights of sibling classes that do not sum to a positive
    value, a guaranteed rate above the parent ceiling, or a borrowing
    label naming a class outside the scheduling tree.
    """


class ParseError(ConfigError):
    """An ``fv``/``tc`` command line could not be parsed."""

    def __init__(self, message: str, command: str = "", position: int = -1):
        super().__init__(message)
        #: The offending command string, if known.
        self.command = command
        #: Token index at which parsing failed, ``-1`` if unknown.
        self.position = position


class ValidationError(ConfigError):
    """A structurally parseable config failed semantic validation."""


class NicError(ReproError):
    """Base class for errors in the SmartNIC hardware model."""


class BufferExhausted(NicError):
    """The NIC buffer pool has no free packet buffers.

    The real NFP drops arriving packets when the MU buffer lists are
    empty; the model raises this only for *internal* misuse (double
    free, freeing an unknown handle). Ordinary exhaustion is reported as
    a packet drop, not an exception.
    """


class SchedulingError(ReproError):
    """The scheduling runtime was driven with inconsistent state."""


class UnknownClassError(SchedulingError):
    """A QoS label referenced a class id missing from the tree."""

    def __init__(self, class_id: str):
        super().__init__(f"unknown traffic class: {class_id!r}")
        self.class_id = class_id


class CapacityError(ReproError):
    """A finite resource (ring, queue, pool) was configured with a
    non-positive capacity or asked to exceed a hard limit."""


class CampaignError(ReproError):
    """The campaign layer was misconfigured or a spec misbehaved.

    Examples: an unknown spec name, a duplicate registration, or a
    result that violates the spec's declared schema.
    """
