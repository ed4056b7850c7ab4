"""In-memory spans recorded around calls into the program's layers."""

from __future__ import annotations

import contextlib
import re
import time
import uuid


class Tracer:
    """Collects spans (name, start, end, parent, run id) in memory.

    A disabled tracer records nothing, so untraced passes pay only for the
    context-manager calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name, "run_id": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self, root_id: int) -> dict[str, float]:
        """Self time by span name over the tree under ``root_id`` (root
        excluded): each span's duration minus the time its children
        cover."""
        kids: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(s)
        out: dict[str, float] = {}
        todo = list(kids.get(root_id, []))
        while todo:
            s = todo.pop()
            ch = kids.get(s["id"], [])
            own = (s["end"] - s["start"]) - sum(c["end"] - c["start"]
                                                for c in ch)
            out[s["name"]] = out.get(s["name"], 0.0) + own
            todo.extend(ch)
        return out


_OP_RE = re.compile(r"^Operator (\d+) (.+?): (\d+) tasks executed, "
                    r"(\d+) blocks produced in ([0-9.]+)s")
_SORT_RE = re.compile(r"^Operator (\d+) (.+?): executed in ([0-9.]+)s")
_SUB_RE = re.compile(r"^Suboperator (\d+) (.+?): (\d+) tasks executed, "
                     r"(\d+) blocks produced")
_WALL_RE = re.compile(r"^\* Remote wall time: .* ([0-9.]+)(us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_dataset_stats(text: str) -> list[dict]:
    """Per-operator wall time from ``Dataset.stats()`` text, as JSON rows
    (operator index, name, tasks, blocks, wall_s, remote_wall_total_s);
    the sub-operators of an all-to-all operator get rows of their own."""
    ops: list[dict] = []
    for line in text.splitlines():
        line = line.strip()
        m = _OP_RE.match(line)
        if m:
            ops.append({"op": int(m[1]), "name": m[2], "tasks": int(m[3]),
                        "blocks": int(m[4]), "wall_s": float(m[5])})
            continue
        m = _SORT_RE.match(line)
        if m:
            ops.append({"op": int(m[1]), "name": m[2],
                        "wall_s": float(m[3])})
            continue
        m = _SUB_RE.match(line)
        if m and ops:
            ops.append({"op": ops[-1]["op"], "sub": int(m[1]),
                        "name": m[2], "tasks": int(m[3]),
                        "blocks": int(m[4])})
            continue
        m = _WALL_RE.match(line)
        if m and ops and "remote_wall_total_s" not in ops[-1]:
            ops[-1]["remote_wall_total_s"] = float(m[1]) * _UNIT[m[2]]
    return ops
