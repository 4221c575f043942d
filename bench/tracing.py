"""In-memory spans and correctness checks for the benchmark.

A span records one call from the benchmark into the package: its name,
start and end (perf_counter seconds since the tracer started), the index of
the enclosing span, the run id, free-form attributes (counts computed from
input sizes, or results such as solver nodes), and how far the process's
peak RSS rose while it was open.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import resource
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, from getrusage."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Tracer:
    """Records spans when enabled; otherwise each span is a bare attribute dict."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Time the enclosed call; the yielded dict becomes the span's attributes."""
        if not self.enabled:
            yield attrs
            return
        parent: Optional[int] = self._open[-1] if self._open else None
        rec = {"name": name, "run": self.run_id, "parent": parent, "attrs": attrs}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rss0 = peak_rss_mb()
        rec["start"] = perf_counter() - self._t0
        try:
            yield attrs
        finally:
            rec["end"] = perf_counter() - self._t0
            rec["rss_rise_mb"] = peak_rss_mb() - rss0
            self._open.pop()


class Checks:
    """Correctness checks of one run: every outcome counts toward attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok
