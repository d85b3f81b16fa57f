"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.PoolExistsError, errors.PoolNotFoundError,
        errors.PoolClosedError, errors.OutOfPoolMemoryError,
        errors.InvalidOIDError, errors.TransactionError, errors.CrashError,
    ])
    def test_pmo_errors(self, exc):
        assert issubclass(exc, errors.PMOError)
        assert issubclass(exc, errors.ReproError)

    @pytest.mark.parametrize("exc", [
        errors.PermissionDeniedError, errors.AttachError,
        errors.NotAttachedError, errors.AddressSpaceError, errors.PkeyError,
    ])
    def test_os_errors(self, exc):
        assert issubclass(exc, errors.OSError_)
        assert issubclass(exc, errors.ReproError)

    @pytest.mark.parametrize("exc", [
        errors.ProtectionFault, errors.DomainError,
    ])
    def test_protection_errors(self, exc):
        assert issubclass(exc, errors.ProtectionError)

    def test_catch_all_family(self):
        with pytest.raises(errors.ReproError):
            raise errors.TraceError("x")


class TestFaultPayloads:
    def test_protection_fault_carries_context(self):
        fault = errors.ProtectionFault("denied", vaddr=0x1000, domain=3,
                                       thread=7, is_write=True)
        assert fault.vaddr == 0x1000
        assert fault.domain == 3
        assert fault.thread == 7
        assert fault.is_write
