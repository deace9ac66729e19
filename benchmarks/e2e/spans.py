"""The benchmark's own span log: layer calls timed from outside the program.

Every timed call goes through :meth:`SpanLog.timed`, which always
returns the call's duration and, when the log is enabled (the traced
run), also keeps a span -- name, start, end, parent span id, job id --
in memory.  Nothing is written until :meth:`write_chrome` at exit.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class SpanLog:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent_id, job_id]`` per span, in start order.
        self.spans: list[list] = []
        self._open: list[int] = []
        self.epoch = time.perf_counter()

    def timed(self, name: str, fn: Callable[[], Any], job: int | None = None) -> tuple[float, Any]:
        """Run ``fn()``; return ``(seconds, result)``.  Exceptions propagate."""
        if not self.enabled:
            t0 = time.perf_counter()
            out = fn()
            return time.perf_counter() - t0, out
        parent = self._open[-1] if self._open else None
        if job is None and parent is not None:
            job = self.spans[parent][4]
        sid = len(self.spans)
        span = [name, 0.0, None, parent, job]
        self.spans.append(span)
        self._open.append(sid)
        t0 = span[1] = time.perf_counter()
        try:
            out = fn()
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        return span[2] - t0, out

    def layer_table(self) -> list[dict]:
        """Per span name: calls, total seconds, self seconds (minus children)."""
        child_time: dict[int, float] = defaultdict(float)
        for _name, t0, t1, parent, _job in self.spans:
            if parent is not None and t1 is not None:
                child_time[parent] += t1 - t0
        rows: dict[str, dict] = {}
        for sid, (name, t0, t1, _parent, _job) in enumerate(self.spans):
            if t1 is None:
                continue
            row = rows.setdefault(name, {"name": name, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[sid]
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def write_chrome(self, path: Path, meta: dict) -> None:
        """Chrome trace-event JSON (chrome://tracing, Perfetto)."""
        events = [
            {
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": (t0 - self.epoch) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"id": sid, "parent": parent, "job": job},
            }
            for sid, (name, t0, t1, parent, job) in enumerate(self.spans)
            if t1 is not None
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "otherData": meta}))
