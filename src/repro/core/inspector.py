"""Static trace inspection — the binary-inspection analogue of ERIM [50].

The paper's security argument (Section VI-D) rests on discipline around
SETPERM: permission windows should be short, revocations must follow
grants, and *"any time, at most two PMOs are enabled"* for a thread, so a
vulnerability inside a window is confined to at most two domains.  ERIM
enforces the analogous WRPKRU discipline by binary inspection; here the
same checks run over a recorded trace before it is accepted for replay.

Checks implemented:

* **unbalanced-grant** — a grant (perm above the thread's baseline) with
  no matching revocation by the end of the trace;
* **window-width**   — more than ``max_open_domains`` domains elevated
  simultaneously for one thread (the paper's pair-wise rule: 2);
* **window-length**  — more than ``max_window_accesses`` accesses between
  a grant and its revocation (wide-open windows defeat the point);
* **unattached-switch** — SETPERM naming a domain that was never attached.

Violations are reported, not raised, so callers can treat the inspector
as a lint (the benchmarks' instrumentation must come back clean — the
test suite enforces that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..cpu import trace as tr
from ..permissions import Perm


@dataclass(frozen=True)
class Violation:
    """One discipline violation found in a trace."""

    kind: str
    event_index: int
    tid: int
    domain: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (f"[{self.kind}] event {self.event_index}, thread "
                f"{self.tid}, domain {self.domain}: {self.detail}")


@dataclass
class InspectionReport:
    """Outcome of inspecting one trace."""

    violations: List[Violation] = field(default_factory=list)
    switches_seen: int = 0
    max_open_observed: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for violation in self.violations:
            out[violation.kind] = out.get(violation.kind, 0) + 1
        return out


class TraceInspector:
    """Checks SETPERM discipline over a recorded trace."""

    def __init__(self, *, max_open_domains: int = 2,
                 max_window_accesses: int = 512):
        if max_open_domains < 1:
            raise ValueError("at least one open domain must be allowed")
        self.max_open_domains = max_open_domains
        self.max_window_accesses = max_window_accesses

    def inspect(self, trace: tr.Trace) -> InspectionReport:
        report = InspectionReport()
        attached: Set[int] = set()
        # Per-thread: baseline perm per domain (set by INIT_PERM), and the
        # currently elevated domains with their window start/size.
        baselines: Dict[int, Dict[int, Perm]] = {}
        open_windows: Dict[int, Dict[int, int]] = {}  # tid -> dom -> count

        kinds, tids, _, operand_a, operand_b = trace.columns.lists()
        for index, (kind, tid, a, b) in enumerate(
                zip(kinds, tids, operand_a, operand_b)):
            if kind == tr.ATTACH:
                attached.add(a)
            elif kind == tr.DETACH:
                attached.discard(a)
            elif kind == tr.INIT_PERM:
                baselines.setdefault(tid, {})[a] = Perm(b)
            elif kind == tr.PERM:
                report.switches_seen += 1
                self._check_switch(report, index, tid, a, Perm(b),
                                   attached, baselines, open_windows)
            elif kind in (tr.LOAD, tr.STORE):
                windows = open_windows.get(tid)
                if windows:
                    for domain in list(windows):
                        windows[domain] += 1
                        if windows[domain] == self.max_window_accesses + 1:
                            report.violations.append(Violation(
                                "window-length", index, tid, domain,
                                f"window exceeded "
                                f"{self.max_window_accesses} accesses"))

        for tid, windows in open_windows.items():
            for domain in windows:
                report.violations.append(Violation(
                    "unbalanced-grant", len(trace), tid, domain,
                    "grant never revoked before end of trace"))
        return report

    def _check_switch(self, report, index, tid, domain, perm,
                      attached, baselines, open_windows) -> None:
        if domain not in attached:
            report.violations.append(Violation(
                "unattached-switch", index, tid, domain,
                "SETPERM on a domain that is not attached"))
            return
        baseline = baselines.get(tid, {}).get(domain, Perm.NONE)
        windows = open_windows.setdefault(tid, {})
        if perm > baseline:
            windows.setdefault(domain, 0)
            report.max_open_observed = max(report.max_open_observed,
                                           len(windows))
            if len(windows) > self.max_open_domains:
                report.violations.append(Violation(
                    "window-width", index, tid, domain,
                    f"{len(windows)} domains elevated at once (max "
                    f"{self.max_open_domains})"))
        else:
            windows.pop(domain, None)


def assert_clean(trace: tr.Trace, **inspector_kwargs) -> InspectionReport:
    """Inspect and raise AssertionError on any violation (test helper)."""
    report = TraceInspector(**inspector_kwargs).inspect(trace)
    if not report.clean:
        summary = ", ".join(f"{kind} x{count}"
                            for kind, count in report.by_kind().items())
        raise AssertionError(f"trace failed inspection: {summary}")
    return report
