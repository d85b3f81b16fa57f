"""CostDescriptor contract: validation, derivations, kernel selection.

The descriptor is the scheme layer's declarative seam — the fast
engine, multicore attribution, serving fragility, and FAIL labels all
derive from it instead of pattern-matching on classes.  These tests pin
the vocabulary validation, the per-scheme declarations, and the
descriptor -> fused-kernel-family mapping.
"""

import pytest

from repro.core.schemes import (CostDescriptor, ProtectionScheme,
                                hard_domain_limit, scheme_by_name,
                                scheme_descriptor, schemes_tagged,
                                supports_domain_count)
from repro.cpu.fast_timing import (FastReplayEngine, kernel_for,
                                   supports_fast_replay)
from repro.os.kernel import Kernel
from repro.sim.config import DEFAULT_CONFIG

ALL_SCHEMES = ("lowerbound", "mpk", "mpk_virt", "domain_virt", "libmpk",
               "erim", "pks_seal", "dpti", "poe2")


class TestValidation:
    def test_default_descriptor_is_free(self):
        desc = CostDescriptor()
        assert desc.switch == "none"
        assert desc.check == "page"
        assert desc.hard_domain_limit is None

    def test_unknown_switch_rejected(self):
        with pytest.raises(ValueError, match="switch kind"):
            CostDescriptor(switch="hypercall")

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="check kind"):
            CostDescriptor(check="oracle")

    def test_unknown_collapse_rejected(self):
        with pytest.raises(ValueError, match="collapse kind"):
            CostDescriptor(collapse="wrap")

    def test_collapse_needs_key_space(self):
        with pytest.raises(ValueError, match="key_space"):
            CostDescriptor(collapse="fault")
        with pytest.raises(ValueError, match="key_space"):
            CostDescriptor(collapse="evict")

    def test_broadcast_requires_tlb_invalidation(self):
        with pytest.raises(ValueError, match="invalidating TLB"):
            CostDescriptor(broadcast_shootdown=True)

    @pytest.mark.parametrize("check", ("page", "ptlb"))
    def test_radiograph_checks_cannot_invalidate_the_tlb(self, check):
        # Their kernels replay the baseline TLB radiograph; no kernel
        # family covers them on a scheme that kills TLB entries.
        with pytest.raises(ValueError, match="cannot invalidate TLB"):
            CostDescriptor(check=check, invalidates_tlb=True)


class TestDerivations:
    def test_fault_collapse_yields_a_limit(self):
        desc = CostDescriptor(check="pkru", key_space=16, reserved_keys=1,
                              collapse="fault")
        assert desc.hard_domain_limit == 15
        assert desc.fail_label == "FAIL (16-key limit)"

    def test_evicting_schemes_have_no_limit(self):
        desc = CostDescriptor(check="pkru", key_space=16, collapse="evict",
                              broadcast_shootdown=True,
                              invalidates_tlb=True)
        assert desc.hard_domain_limit is None

    def test_hard_domain_limits_by_name(self):
        assert hard_domain_limit("mpk") == 15  # key 0 ceded to the kernel
        assert hard_domain_limit("erim") == 16
        for name in ("lowerbound", "mpk_virt", "domain_virt", "libmpk",
                     "pks_seal", "dpti", "poe2"):
            assert hard_domain_limit(name) is None, name

    def test_supports_domain_count(self):
        assert supports_domain_count("erim", 16)
        assert not supports_domain_count("erim", 17)
        assert supports_domain_count("mpk", 15)
        assert not supports_domain_count("mpk", 16)
        assert supports_domain_count("dpti", 4096)
        assert supports_domain_count("pks", 4096)  # aliases resolve

    def test_fail_labels_match_the_pinned_report_string(self):
        # Both hard-limited schemes have a 16-slot key space, so the
        # historical report string stays byte-identical.
        assert scheme_descriptor("mpk").fail_label == "FAIL (16-key limit)"
        assert scheme_descriptor("erim").fail_label == \
            "FAIL (16-key limit)"


class TestSchemeDeclarations:
    def test_every_registered_scheme_declares_a_descriptor(self):
        for tag in ("multi_pmo", "single_pmo"):
            for name in schemes_tagged(tag):
                desc = scheme_by_name(name).cost
                assert isinstance(desc, CostDescriptor), name

    def test_switch_kinds(self):
        assert scheme_descriptor("mpk").switch == "wrpkru"
        assert scheme_descriptor("erim").switch == "wrpkru"
        assert scheme_descriptor("domain_virt").switch == "wrpkru"
        assert scheme_descriptor("mpk_virt").switch == "wrpkru_virt"
        assert scheme_descriptor("libmpk").switch == "wrpkru_virt"
        assert scheme_descriptor("pks_seal").switch == "wrpkru_virt"
        assert scheme_descriptor("dpti").switch == "cr3"
        assert scheme_descriptor("poe2").switch == "overlay"

    def test_broadcasters_are_the_virtualizing_key_schemes(self):
        broadcasting = {name for name in ALL_SCHEMES
                        if scheme_descriptor(name).broadcast_shootdown}
        assert broadcasting == {"mpk_virt", "libmpk", "pks_seal", "poe2"}

    def test_poe2_widens_the_key_space(self):
        assert scheme_descriptor("poe2").key_space == 64
        assert scheme_descriptor("mpk_virt").key_space == 16

    def test_dpti_has_no_keys_at_all(self):
        desc = scheme_descriptor("dpti")
        assert desc.key_space is None
        assert desc.collapse == "none"
        assert not desc.broadcast_shootdown


class TestKernelSelection:
    """descriptor check -> kernel family (repro.cpu.fast_timing)."""

    def _kernel(self, name):
        return kernel_for(DEFAULT_CONFIG, scheme_by_name(name))

    def test_page_check_maps_to_codes(self):
        assert self._kernel("lowerbound") == "codes"

    def test_ptlb_check_maps_to_dv(self):
        assert self._kernel("domain_virt") == "dv"

    def test_pkru_check_maps_to_mpk(self):
        for name in ("mpk", "mpk_virt", "erim", "pks_seal", "poe2"):
            assert self._kernel(name) == "mpk", name

    def test_swtable_check_maps_to_swtable(self):
        for name in ("libmpk", "dpti"):
            assert self._kernel(name) == "swtable", name

    def test_all_registered_schemes_replay_fast(self):
        for name in ALL_SCHEMES:
            assert supports_fast_replay(DEFAULT_CONFIG,
                                        scheme_by_name(name)), name

    def test_descriptorless_scheme_has_no_kernel(self):
        class Undeclared(ProtectionScheme):
            name = "undeclared_test_scheme"
            cost = None

        assert kernel_for(DEFAULT_CONFIG, Undeclared) is None
        assert not supports_fast_replay(DEFAULT_CONFIG, Undeclared)
        # ... and the engine refuses it by name, before any replay.
        kernel = Kernel()
        with pytest.raises(ValueError, match="undeclared_test_scheme"):
            FastReplayEngine(DEFAULT_CONFIG, kernel,
                             kernel.create_process(), Undeclared)
