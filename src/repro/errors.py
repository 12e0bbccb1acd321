"""Exception hierarchy shared by every subsystem of the PDS reproduction.

Each hardware or protocol violation gets its own exception type so tests can
assert on the *precise* constraint that was broken (e.g. an in-place flash
page rewrite vs. a RAM budget overflow), mirroring how the tutorial's
secure-token platform would fail at distinct layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class HardwareError(ReproError):
    """Base class for secure-hardware simulation violations."""


class FlashViolation(HardwareError):
    """An operation violated the NAND flash programming model.

    Raised when code attempts an in-place page rewrite, programs the pages of
    a block out of order, or addresses a page/block outside the chip.
    """


class RamBudgetExceeded(HardwareError):
    """An allocation pushed RAM consumption past the MCU's budget.

    The tutorial's central design constraint is RAM < 128 KB; every embedded
    algorithm must fail loudly (here) rather than silently spill.
    """


class TamperedTokenError(HardwareError):
    """A secure token detected tampering and destroyed its key material."""


class PowerLossError(HardwareError):
    """The token was unplugged mid-operation (simulated power loss).

    Raised by a :class:`~repro.fault.FaultPlan` at the scheduled IO; all
    volatile state (RAM, caches, observers) is gone, flash contents up to
    the interrupted operation survive, and the only way forward is
    :meth:`~repro.hardware.flash.NandFlash.power_cycle` followed by
    :func:`~repro.storage.recovery.mount`.
    """


class StorageError(ReproError):
    """Base class for log-structured storage failures."""


class LogSealedError(StorageError):
    """An append was attempted on a log that has been sealed (made immutable)."""


class RecoveryError(StorageError):
    """A mount/recovery scan found flash state it cannot reconcile.

    Distinct from :class:`StorageError` raised on the live path: recovery
    errors mean the on-flash image itself is inconsistent beyond what the
    crash model allows (e.g. a bucket id outside the directory being
    remounted), not that a caller misused an API.
    """


class AccessDenied(ReproError):
    """An access-control rule rejected an operation on a PDS."""


class ProtocolError(ReproError):
    """A distributed protocol message was malformed or arrived out of order."""


class NetError(ReproError):
    """Base class for simulated-network (``repro.net``) failures."""


class NetTimeout(NetError):
    """A deadline expired while waiting for a frame or delivery slot."""


class RetriesExhausted(NetError):
    """A retried network operation failed on every allowed attempt."""


class WorkerLost(ReproError):
    """A pool worker process died while running a task.

    Only the tasks in flight on the broken pool fail; the
    :class:`~repro.globalq.parallel.WorkerPool` replaces its processes on
    the next submit.
    """


class IntegrityError(ProtocolError):
    """A verification primitive caught the SSI (or a participant) cheating."""


class QueryError(ReproError):
    """A query referenced unknown tables/columns or used unsupported syntax."""
