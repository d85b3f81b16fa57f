"""ObjectIDs — the pool pointers of Figure 1.

To support relocatability, every pointer stored inside a PMO is a 64-bit
value split into a 32-bit pool ID concatenated with a 32-bit offset within
the pool.  Dereferencing adds the pool's current base address to the
offset, so a pool can be attached at a different virtual address on every
run without rewriting its pointers (Section II-C, Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK32 = 0xFFFF_FFFF

#: The null pool pointer (pool 0 is reserved and never allocated).
NULL_OID_VALUE = 0


@dataclass(frozen=True, order=True, slots=True)
class OID:
    """A pool pointer: ``(pool_id << 32) | offset``.

    Instances are immutable and hashable so they can key dictionaries and
    be stored in sets, like raw pointers in C.
    """

    pool_id: int
    offset: int

    def __post_init__(self) -> None:
        if not 0 <= self.pool_id <= _MASK32:
            raise ValueError(f"pool_id {self.pool_id:#x} does not fit in 32 bits")
        if not 0 <= self.offset <= _MASK32:
            raise ValueError(f"offset {self.offset:#x} does not fit in 32 bits")

    # -- packing ------------------------------------------------------------

    def pack(self) -> int:
        """Return the 64-bit on-media representation of this pointer."""
        return (self.pool_id << 32) | self.offset

    @staticmethod
    def unpack(value: int) -> "OID":
        """Decode a 64-bit on-media value back into an :class:`OID`.

        Workloads decode through :meth:`repro.workloads.base.PMem.read_oid`,
        which interns the result per workspace.
        """
        if not 0 <= value <= 0xFFFF_FFFF_FFFF_FFFF:
            raise ValueError(f"OID value {value:#x} does not fit in 64 bits")
        return OID(pool_id=value >> 32, offset=value & _MASK32)

    # -- pointer arithmetic ---------------------------------------------------

    def __add__(self, delta: int) -> "OID":
        return OID(self.pool_id, self.offset + delta)

    def __sub__(self, delta: int) -> "OID":
        return OID(self.pool_id, self.offset - delta)

    # -- predicates -----------------------------------------------------------

    def is_null(self) -> bool:
        return (self.pool_id | self.offset) == 0

    def __bool__(self) -> bool:
        return not self.is_null()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_null():
            return "OID(NULL)"
        return f"OID(pool={self.pool_id}, off={self.offset:#x})"


#: Convenience constant mirroring ``NULL`` in the C APIs.
NULL_OID = OID(0, 0)
