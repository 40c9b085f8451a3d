"""In-memory spans for the traced run, and the per-layer metrics made from them.

A span is ``(id, parent, name, start, end, run)``: ``parent`` is the id of
the span that was open when it started (None at the top), ``run`` the
repeat it belongs to.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

ID, PARENT, NAME, START, END, RUN = range(6)

#: kernel span names by the rank of the broadcast arguments
KERNEL_BY_RANK = {3: "connectives.kernel_cube", 2: "connectives.kernel_grid"}
KERNEL_1D = "connectives.kernel_samples"
KERNEL_NAMES = (*KERNEL_BY_RANK.values(), KERNEL_1D)


class Tracer:
    """Collects spans of one run; nothing is written until the caller asks."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def _parent(self):
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._parent()
        self._open.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, parent, name, start, end, self.run)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished leaf span under the span open now."""
        self.spans.append((len(self.spans), self._parent(), name, start, end, self.run))

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def self_times(spans) -> dict[int, float]:
    """Duration minus child coverage, for every span id."""
    children: dict[int, list[tuple]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span[START]
        for child in sorted(children.get(span[ID], ()), key=lambda s: s[START]):
            lo, hi = max(child[START], reach), min(child[END], span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[ID]] = (span[END] - span[START]) - covered
    return out


def check_nesting(spans) -> None:
    """Raise if a child span leaves its parent's interval or a self time is negative."""
    by_id = {span[ID]: span for span in spans}
    for span in spans:
        parent = by_id.get(span[PARENT])
        if parent is not None and not parent[START] <= span[START] <= span[END] <= parent[END]:
            raise ValueError(f"span {span} is not inside its parent {parent}")
    for sid, value in self_times(spans).items():
        if value < 0:
            raise ValueError(f"span {by_id[sid]} has negative self time {value}")


def layer_metrics(spans, counts: dict[str, int], root: str) -> dict[str, float]:
    """Per-layer times and counts of one traced repeat.

    ``root`` names the span that covers what the CLI itself does; sibling
    spans outside it (replays such as ``tags.combine``) are not part of it.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for span in spans:
        name = span[NAME]
        total[name] = total.get(name, 0.0) + (span[END] - span[START])
        self_total[name] = self_total.get(name, 0.0) + selfs[span[ID]]
    kernel_calls = sum(1 for span in spans if span[NAME] in KERNEL_NAMES)
    metrics = {
        "fileio.read_s": total.get("fileio.read", 0.0),
        "fileio.decode_s": total.get("fileio.decode", 0.0),
        "fileio.validate_s": total.get("fileio.validate", 0.0),
        "fileio.save_s": total.get("fileio.save", 0.0),
        "fileio.to_document_s": total.get("fileio.to_document", 0.0),
        "sets.apply_s": total.get("sets.apply", 0.0),
        "sets.self_s": self_total.get("sets.apply", 0.0),
        "tags.combine_s": total.get("tags.combine", 0.0),
        "connectives.kernel_s": sum(total.get(name, 0.0) for name in KERNEL_NAMES),
        "connectives.kernel_cube_s": total.get(KERNEL_BY_RANK[3], 0.0),
        "connectives.kernel_grid_s": total.get(KERNEL_BY_RANK[2], 0.0),
        "connectives.kernel_samples_s": total.get(KERNEL_1D, 0.0),
        "connectives.kernel_calls": kernel_calls,
        "analysis.check_s": total.get("analysis.check", 0.0),
        "analysis.self_s": self_total.get("analysis.check", 0.0),
        "expr.parse_s": total.get("expr.parse", 0.0),
        "trace.total_s": total[root],
    }
    metrics.update(counts)
    return metrics

