"""The paper's core contribution: domain-based PMO protection schemes."""

# plru first: a leaf module other packages import while this package is
# still initializing.  The permission lattice is the leaf module
# repro.permissions; this package re-exports it.
from ..permissions import Perm, check_access, parse_perm, strictest
from .plru import PseudoLRU, TrueLRU

from .domain_virt import DomainVirtScheme
from .grouping import (exposure_report, greedy_grouping,
                       minimum_weakening, weakening)
from .inspector import InspectionReport, TraceInspector, Violation
from .drt import DomainRangeTable, DRTEntry
from .dtt import NO_KEY, DomainTranslationTable, DTTEntry
from .dttlb import DTTLB, DTTLBEntry
from .libmpk import LibmpkScheme
from .mpk import MPKScheme, PKRU
from .mpk_virt import MPKVirtScheme
from .permission_table import PTLB, PermissionTable, PTLBEntry
from .schemes import (LowerboundScheme, NullProtection, ProtectionScheme,
                      available_schemes, register_scheme, scheme_by_name)

__all__ = [
    "DTTLB",
    "DTTLBEntry",
    "DRTEntry",
    "DTTEntry",
    "DomainRangeTable",
    "DomainTranslationTable",
    "DomainVirtScheme",
    "InspectionReport",
    "LibmpkScheme",
    "LowerboundScheme",
    "MPKScheme",
    "MPKVirtScheme",
    "NO_KEY",
    "NullProtection",
    "PKRU",
    "PTLB",
    "PTLBEntry",
    "Perm",
    "PermissionTable",
    "ProtectionScheme",
    "PseudoLRU",
    "TraceInspector",
    "TrueLRU",
    "Violation",
    "available_schemes",
    "check_access",
    "parse_perm",
    "register_scheme",
    "scheme_by_name",
    "strictest",
    "exposure_report",
    "greedy_grouping",
    "minimum_weakening",
    "weakening",
]
