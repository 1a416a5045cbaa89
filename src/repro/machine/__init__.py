"""Simulated shared-memory multiprocessor (the WWT stand-in)."""

from repro.machine.config import MachineConfig
from repro.machine.events import (
    EV_BARRIER,
    EV_DIRECTIVE,
    EV_LOCK,
    EV_REF,
    EV_UNLOCK,
    DIR_CHECK_IN,
    DIR_CHECK_OUT_S,
    DIR_CHECK_OUT_X,
    DIR_PREFETCH_S,
    DIR_PREFETCH_X,
)
from repro.machine.machine import Machine, RunResult

__all__ = [
    "MachineConfig",
    "Machine",
    "RunResult",
    "EV_BARRIER",
    "EV_DIRECTIVE",
    "EV_LOCK",
    "EV_REF",
    "EV_UNLOCK",
    "DIR_CHECK_IN",
    "DIR_CHECK_OUT_S",
    "DIR_CHECK_OUT_X",
    "DIR_PREFETCH_S",
    "DIR_PREFETCH_X",
]
