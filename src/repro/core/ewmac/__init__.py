"""EW-MAC: the paper's primary contribution (Sec. 4)."""

from .protocol import (
    AskedContext,
    AskingContext,
    EwMac,
    EwMacEarliest,
    ExtraCase,
    ExtraStats,
)
from .schedule import NeighborScheduleTracker, ProtectedInterval
from .states import TRANSITIONS, EwState, Fig3StateMachine, InvalidTransition

__all__ = [
    "AskedContext",
    "AskingContext",
    "EwMac",
    "EwMacEarliest",
    "EwState",
    "ExtraCase",
    "ExtraStats",
    "Fig3StateMachine",
    "InvalidTransition",
    "NeighborScheduleTracker",
    "ProtectedInterval",
    "TRANSITIONS",
]
