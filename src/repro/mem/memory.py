"""Physical memory: DRAM + NVM regions and frame allocation.

Main memory consists of DRAM and NVM (Section V).  The physical address
space is split into two fixed regions; PMO pages are backed by NVM frames
and everything else by DRAM frames.  A replay charges each region the
latency of its ``config.memory`` (360 and 120 cycles by default, the 3x
ratio the paper takes from the Optane DC characterization [24]).
"""

from __future__ import annotations

from ..errors import SimulationError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

#: First frame number of the NVM region (DRAM frames sit below it).
NVM_FRAME_BASE = 1 << 28  # 1 TB boundary in frame numbers


class PhysicalMemory:
    """Frame allocator over the DRAM and NVM regions."""

    def __init__(self, *, dram_frames: int = NVM_FRAME_BASE,
                 nvm_frames: int = 1 << 28):
        self._dram_limit = dram_frames
        self._nvm_limit = NVM_FRAME_BASE + nvm_frames
        self._next_dram = 0
        self._next_nvm = NVM_FRAME_BASE
        self.dram_frames_allocated = 0
        self.nvm_frames_allocated = 0

    # -- frame allocation -----------------------------------------------------

    def alloc_dram_frame(self) -> int:
        """Allocate one DRAM frame; returns its frame number."""
        if self._next_dram >= self._dram_limit:
            raise SimulationError("out of DRAM frames")
        pfn = self._next_dram
        self._next_dram += 1
        self.dram_frames_allocated += 1
        return pfn

    def alloc_nvm_frame(self) -> int:
        """Allocate one NVM frame; returns its frame number."""
        if self._next_nvm >= self._nvm_limit:
            raise SimulationError("out of NVM frames")
        pfn = self._next_nvm
        self._next_nvm += 1
        self.nvm_frames_allocated += 1
        return pfn

    def advance_to(self, next_dram: int, next_nvm: int) -> None:
        """Skip the allocators ahead of externally reconstructed frames.

        Replay contexts install a recorded page table directly; advancing
        keeps any replay-time demand paging (pages unmapped mid-trace by
        a detach) from re-issuing frame numbers the snapshot already uses.
        """
        self._next_dram = max(self._next_dram, next_dram)
        self._next_nvm = max(self._next_nvm, max(next_nvm, NVM_FRAME_BASE))

    # -- classification ----------------------------------------------------------

    @staticmethod
    def is_nvm_frame(pfn: int) -> bool:
        return pfn >= NVM_FRAME_BASE
