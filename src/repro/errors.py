"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch the whole family with one ``except`` clause.  The
sub-hierarchy mirrors the paper's layers: PMO substrate, OS layer,
protection mechanisms, and the simulator harness.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# PMO substrate
# ---------------------------------------------------------------------------


class PMOError(ReproError):
    """Base class for persistent-memory-object errors."""


class PoolExistsError(PMOError):
    """``pool_create`` was called with a name that is already taken."""


class PoolNotFoundError(PMOError):
    """``pool_open``/``attach`` named a pool that does not exist."""


class PoolClosedError(PMOError):
    """An operation was attempted on a closed pool handle."""


class OutOfPoolMemoryError(PMOError):
    """``pmalloc`` could not satisfy the request within the pool."""


class InvalidOIDError(PMOError):
    """An ObjectID did not refer to a live allocation."""


class TransactionError(PMOError):
    """A durable transaction was misused (nested begin, commit w/o begin...)."""


class CrashError(PMOError):
    """Raised by the crash-injection harness to simulate power loss."""


# ---------------------------------------------------------------------------
# OS layer
# ---------------------------------------------------------------------------


class OSError_(ReproError):
    """Base class for simulated-OS errors (named to avoid shadowing builtins)."""


class PermissionDeniedError(OSError_):
    """The caller lacks the namespace/mode permission for the operation."""


class AttachError(OSError_):
    """A PMO attach request violated the sharing policy or alignment rules."""


class NotAttachedError(OSError_):
    """An operation referenced a PMO that is not attached to the process."""


class AddressSpaceError(OSError_):
    """Virtual-address allocation failed (exhaustion or bad alignment)."""


class PkeyError(OSError_):
    """pkey_alloc/pkey_free/pkey_mprotect misuse (e.g. no free keys)."""


# ---------------------------------------------------------------------------
# Protection mechanisms
# ---------------------------------------------------------------------------


class ProtectionError(ReproError):
    """Base class for domain-protection errors."""


class ProtectionFault(ProtectionError):
    """A load/store violated the effective (page ∧ domain) permission.

    This is the simulated equivalent of the hardware exception the paper's
    MMU raises when the strictest of the page permission and the domain
    permission does not allow the access.
    """

    def __init__(self, message: str, *, vaddr: int = 0, domain: int = 0,
                 thread: int = 0, is_write: bool = False):
        super().__init__(message)
        self.vaddr = vaddr
        self.domain = domain
        self.thread = thread
        self.is_write = is_write


class DomainError(ProtectionError):
    """Domain bookkeeping misuse (unknown domain ID, double registration)."""


# ---------------------------------------------------------------------------
# Simulator harness
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """The simulator harness was misconfigured or misused."""


class TraceError(SimulationError):
    """A trace buffer was malformed or replayed inconsistently."""


class EngineError(SimulationError):
    """The experiment engine was misused (unknown suite, missing layout)."""
