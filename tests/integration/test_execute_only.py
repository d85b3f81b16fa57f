"""Execute-only memory: jumps into a domain whose data access is disabled.

Section II-B: setting a domain's permission to inaccessible in the PKRU
blocks all data reads and writes, but code can still jump into the domain
and execute — the classic MPK executable-only-memory use case.  The same
holds for both proposed designs (the PTLB's "1x" encoding is
"inaccessible, execute only").
"""

import pytest

from repro.errors import ProtectionFault
from repro.sim.simulator import replay_trace
from repro.workloads.base import UnprotectedPolicy, Workspace

SCHEMES = ("mpk", "mpk_virt", "domain_virt", "libmpk")


def build_code_pmo():
    """A PMO holding 'code', attached with no data permission granted."""
    ws = Workspace(UnprotectedPolicy(), seed=4)
    pool = ws.create_and_attach("libcode", 1 << 20)
    with ws.untraced():
        code = pool.pool.pmalloc(4096, align=4096)
        ws.mem.write_bytes(code, 0, b"\x90" * 64)  # nop sled
    return ws, pool, code


class TestExecuteOnly:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fetches_allowed_without_data_permission(self, scheme):
        ws, pool, code = build_code_pmo()
        for offset in range(0, 64, 8):
            ws.fetch(pool.va_of(code, offset))
        trace = ws.finish()
        results = replay_trace(trace, (scheme,))
        assert results[scheme].protection_faults == 0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_data_read_of_code_still_faults(self, scheme):
        """The point of execute-only memory: code cannot be *read* (e.g.
        to disclose gadgets), only executed."""
        ws, pool, code = build_code_pmo()
        ws.fetch(pool.va_of(code))          # fine
        ws.recorder.load(ws.tid, pool.va_of(code))  # data read: illegal
        trace = ws.finish()
        with pytest.raises(ProtectionFault):
            replay_trace(trace, (scheme,))

    def test_fetch_counts_as_pmo_access_with_memory_latency(self):
        ws, pool, code = build_code_pmo()
        ws.fetch(pool.va_of(code))
        trace = ws.finish()
        results = replay_trace(trace, ())
        assert results["baseline"].pmo_accesses == 1
        # An instruction fetch misses the cold cache: NVM latency applies.
        assert results["baseline"].cycles > 100

    def test_fetch_events_in_histogram(self):
        ws, pool, code = build_code_pmo()
        ws.fetch(pool.va_of(code))
        assert ws.finish().counts()["fetch"] == 1
