"""Chrome trace-event output for the span tracer.

Spans recorded by the :class:`~repro.obs.recorder.Recorder` become
"complete" (``ph: "X"``) events in the Chrome trace-event JSON format —
the ``{"traceEvents": [...]}`` object understood by Perfetto
(https://ui.perfetto.dev), ``chrome://tracing``, and Speedscope.
Timestamps and durations are microseconds relative to tracer creation.
"""

from __future__ import annotations

import json
from typing import IO, List, Optional, Union


class SpanTracer:
    """Collects completed spans as Chrome trace events.

    ``add`` is called by the recorder when a span closes; ``write``
    serialises the accumulated events.  The tracer itself never touches
    the clock — the recorder supplies start/duration, so the tracer can
    be exercised deterministically in tests.
    """

    def __init__(self, pid: int = 0) -> None:
        self.pid = pid
        self.events: List[dict] = []

    def add(self, name: str, start_us: float, duration_us: float,
            tid: int = 0, args: Optional[dict] = None) -> None:
        event = {
            "name": name,
            "ph": "X",
            "ts": round(start_us, 3),
            "dur": round(duration_us, 3),
            "pid": self.pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def to_json(self) -> dict:
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    def write(self, destination: Union[str, IO[str]]) -> None:
        """Write the trace to a path or an open text stream."""
        if hasattr(destination, "write"):
            json.dump(self.to_json(), destination)
        else:
            with open(destination, "w") as handle:
                json.dump(self.to_json(), handle)
