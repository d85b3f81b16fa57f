"""The paper's core contribution: domain-based PMO protection schemes."""

# plru first: a leaf module other packages import while this package is
# still initializing.  The permission lattice is the leaf module
# repro.permissions; this package re-exports it.
from ..permissions import Perm, check_access, parse_perm, strictest
from .plru import PseudoLRU

from .domain_virt import DomainVirtScheme
from .grouping import (exposure_report, greedy_grouping,
                       minimum_weakening, weakening)
from .inspector import InspectionReport, TraceInspector, Violation
from .dtt import NO_KEY, DomainTranslationTable, DTTEntry, DTTLBEntry
from .libmpk import LibmpkScheme
from .lookaside import LookasideBuffer
from .mpk import MPKScheme, PKRU
from .mpk_virt import MPKVirtScheme
from .permission_table import PermissionTable, PTLBEntry
from .schemes import (LowerboundScheme, NullProtection, ProtectionScheme,
                      available_schemes, register_scheme, scheme_by_name)

__all__ = [
    "DTTLBEntry",
    "DTTEntry",
    "DomainTranslationTable",
    "DomainVirtScheme",
    "InspectionReport",
    "LibmpkScheme",
    "LookasideBuffer",
    "LowerboundScheme",
    "MPKScheme",
    "MPKVirtScheme",
    "NO_KEY",
    "NullProtection",
    "PKRU",
    "PTLBEntry",
    "Perm",
    "PermissionTable",
    "ProtectionScheme",
    "PseudoLRU",
    "TraceInspector",
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
