"""In-memory span recorder for the pipeline benchmark's traced rounds.

Every layer call ``pipeline.py`` makes is wrapped in
:meth:`Spans.span`; a traced round keeps one record per call (name,
start, end, parent, round id, plus the counts the caller attaches) and
the parent process writes them to ``out/spans-<workload>.json`` when the
benchmark ends.  Untraced rounds use a disabled recorder: the same call
sites, no clock reads, nothing kept.

Spans are recorded from the benchmark's own files around calls into
``repro``; nothing inside the package is instrumented, so a span's self
time is the layer's whole cost as seen from its caller.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Spans:
    """Nested wall-clock spans of one round (``perf_counter`` seconds)."""

    def __init__(self, enabled: bool, round_id: int = 0):
        self.enabled = enabled
        self.round_id = round_id
        self.records: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        """Time the body as one span; yields its attribute dict.

        The caller may add counts to the yielded dict inside the body
        (events generated, requests planned, ...).  A span whose body
        raises is still closed, with ``error`` set to the exception type.
        """
        if not self.enabled:
            yield attrs
            return
        record: Dict[str, object] = {
            "name": name, "round": self.round_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0, "end": 0.0, "attrs": attrs}
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        record["start"] = time.perf_counter()
        try:
            yield attrs
        except BaseException as error:
            attrs["error"] = type(error).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(records: List[Dict[str, object]]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent never overlap (a pass is sequential), so
    the covered time is the plain sum of their durations.
    """
    own = [float(r["end"]) - float(r["start"]) for r in records]
    for record in records:
        parent = record["parent"]
        if parent is not None:
            own[parent] -= float(record["end"]) - float(record["start"])
    return own


def layer_table(records: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total_s and self_s, in first-seen order."""
    table: Dict[str, Dict[str, float]] = {}
    for record, own in zip(records, self_times(records)):
        row = table.setdefault(str(record["name"]),
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += float(record["end"]) - float(record["start"])
        row["self_s"] += own
    return table
