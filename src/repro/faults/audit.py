"""Post-run invariant audits: no node may end with orphaned pending state.

Two audits live here.  :func:`audit_modems` runs at the end of *every*
scenario: each arrival that reached a modem must have ended with exactly
one outcome count (decoded, failed, or dropped by an outage) unless it is
still on air, no deferred certain-failure arrival that has ended may be
left unsettled, and none that has begun may be left unregistered on its
receiver's queue.  A violation raises :class:`ArrivalAuditError` — it
means the receive path lost or double-counted an arrival.  The MAC audit
below runs after faulted runs.

A MAC that is in a non-idle handshake state must always hold a *live*
(scheduled, pending) escape event — a timeout or a slot whose tick will
resolve the state.  If its peer died mid-exchange and every escape timer
is gone, the node is wedged: it will sit in WAIT_* forever, silently
withdrawing from the network.  The audit walks every live MAC after a
faulted run and reports such states; under a strict plan
(:attr:`FaultPlan.strict_audit`) any violation raises
:class:`FaultAuditError` — a wedged handshake is a protocol bug, not a
degraded-but-acceptable outcome.

The per-protocol rules live on the MACs themselves
(:meth:`~repro.mac.base.SlottedMac.audit_pending_state` plus the
``_audit_protocol_state`` hooks); this module is the scenario-facing
aggregation layer.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mac.base import SlottedMac
    from ..phy.modem import AcousticModem


class FaultAuditError(RuntimeError):
    """A faulted scenario ended with orphaned pending MAC state."""

    def __init__(self, violations: Sequence[str]) -> None:
        self.violations = tuple(violations)
        lines = "\n  ".join(self.violations)
        super().__init__(
            f"{len(self.violations)} wedged handshake(s) after the run:\n  {lines}"
        )


def audit_mac(mac: "SlottedMac") -> List[str]:
    """Invariant violations for one MAC (empty list = clean)."""
    return mac.audit_pending_state()


def audit_macs(macs: Iterable["SlottedMac"]) -> List[str]:
    """Aggregate invariant violations across a whole scenario's MACs."""
    violations: List[str] = []
    for mac in macs:
        violations.extend(mac.audit_pending_state())
    return violations


class ArrivalAuditError(RuntimeError):
    """A scenario ended with arrivals lost or double-counted by a modem."""

    def __init__(self, violations: Sequence[str]) -> None:
        self.violations = tuple(violations)
        # A broken receive path breaks every modem at once; the first few
        # violations say what went wrong.
        lines = "\n  ".join(self.violations[:10])
        more = len(self.violations) - 10
        if more > 0:
            lines += f"\n  ... and {more} more"
        super().__init__(
            f"{len(self.violations)} arrival accounting violation(s):\n  {lines}"
        )


def audit_modems(modems: Iterable["AcousticModem"]) -> List[str]:
    """Arrival conservation violations across modems (empty list = clean)."""
    violations: List[str] = []
    for modem in modems:
        violations.extend(modem.audit_arrivals())
    return violations
