"""Differential-privacy BUDGET LEDGER — the accounting side of the
DP query ops (dp_noisy_type_counts, ldp_event_type_counts): every
released query SPENDS epsilon, basic composition sums the spends, and
the ledger refuses releases past the budget. Durable as append-only
JSONL (the txlog discipline: blind append, re-read to audit). Spends from
any number of processes are serialized by an exclusive ``flock`` on a
sidecar ``<path>.lock`` file held across the budget check and the
append."""

from __future__ import annotations

import fcntl
import json
import os


class BudgetExceeded(RuntimeError):
    pass


class DPBudgetLedger:
    """Append-only epsilon ledger with a hard budget."""

    def __init__(self, path: str, eps_budget: float):
        self.path = path
        self.eps_budget = float(eps_budget)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    def spent(self) -> float:
        if not os.path.exists(self.path):
            return 0.0
        with open(self.path) as f:
            return sum(json.loads(line)["eps"] for line in f if line.strip())

    def spend(self, query: str, eps: float) -> float:
        """Record a release; returns remaining budget. Refuses (and
        records NOTHING) when the spend would exceed the budget."""
        eps = float(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        with open(self.path + ".lock", "a") as lock:
            # check-then-append is one step for every spender
            fcntl.flock(lock, fcntl.LOCK_EX)
            used = self.spent()
            if used + eps > self.eps_budget + 1e-12:
                raise BudgetExceeded(
                    f"release {query!r} needs eps={eps}, only "
                    f"{self.eps_budget - used:.6g} of {self.eps_budget} "
                    f"left")
            with open(self.path, "a") as f:
                f.write(json.dumps({"query": query, "eps": eps},
                                   sort_keys=True) + "\n")
        return self.eps_budget - used - eps

    def audit(self):
        """(seq, query, eps, cum_eps, remaining) rows."""
        import numpy as np
        import pyarrow as pa

        rows = []
        if os.path.exists(self.path):
            with open(self.path) as f:
                rows = [json.loads(line) for line in f if line.strip()]
        eps = np.asarray([r["eps"] for r in rows], np.float64)
        cum = np.cumsum(eps) if eps.size else eps
        return pa.table({
            "seq": pa.array(np.arange(len(rows), dtype=np.int64)),
            "query": pa.array([r["query"] for r in rows], pa.string()),
            "eps": pa.array(eps),
            "cum_eps": pa.array(cum),
            "remaining": pa.array(self.eps_budget - cum)})
