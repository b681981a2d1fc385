"""In-memory spans recorded by the benchmark around the calls into each layer.

A span is ``{"id", "name", "start", "end", "parent", "query_id"}`` with
times in seconds on ``time.perf_counter``. Spans stay in memory during a
run and are written once, at its end.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional


class SpanLog:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(
        self, name: str, start: float, end: float, parent: Optional[int], query_id: str
    ) -> int:
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end,
             "parent": parent, "query_id": query_id}
        )
        return len(self.spans) - 1

    def close(self, span_id: int, end: float) -> None:
        """Set the end of a span that was added before its children ran."""
        self.spans[span_id]["end"] = end

    def write(self, path: Path, **header: object) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({**header, "spans": self.spans}, out)
