"""Privacy budget accounting for repeated location reports.

The paper analyses a single report per user. In deployments workers
re-report as they move, and under sequential composition each
ε-Geo-Indistinguishable report spends ε of a cumulative budget. This
module provides the ledger a client (or an auditor) uses to enforce a cap:
an extension beyond the paper, but a prerequisite for real adoption of
either mechanism.

Composition note: Geo-I composes additively over *independent* mechanism
invocations on the same datum — reporting twice with budgets ε1 and ε2 is
(ε1+ε2)-Geo-I against an adversary seeing both reports. The ledger tracks
exactly that sum per principal.

Storage: balances live in a dense float64 array indexed by a
principal→row dict, and history in parallel row/epsilon arrays. The
cohort path (:meth:`PrivacyBudgetLedger.spend_batch`) reads and writes
only the cohort's rows, so a charge costs O(cohort) however many
principals the ledger holds: a serving cohort of a handful of workers is
checked and applied in plain Python, a cohort of thousands with a few
array operations. The audit aggregates
(:meth:`PrivacyBudgetLedger.total_spent`,
:meth:`PrivacyBudgetLedger.min_remaining`) are single reductions. Shard
snapshots do not carry a ledger: a serving shard charges one ε per
registration and nothing else, so a restore rebuilds its ledger with one
:meth:`PrivacyBudgetLedger.spend_batch` over the registered workers.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BudgetExceededError", "PrivacyBudgetLedger", "CHARGE_PLAIN_MAX_ROWS"]

#: :meth:`PrivacyBudgetLedger.spend_batch` checks and applies a cohort of
#: at most this many principals in plain Python and a larger one with
#: numpy. Set from the crossover ``benchmarks/bench_ablation_batch.py``
#: prints (the plain form won through 48-56 rows in five sweeps on 2
#: CPUs).
CHARGE_PLAIN_MAX_ROWS = 48


class BudgetExceededError(RuntimeError):
    """Raised when a spend would push a principal past its budget cap."""


def _check_epsilon(epsilon: float) -> None:
    # written so a NaN fails: every comparison with NaN is False
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


class PrivacyBudgetLedger:
    """Per-principal cumulative epsilon tracker with a hard cap.

    Parameters
    ----------
    capacity:
        Maximum cumulative epsilon any principal may spend.
    """

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        # NaN fails (it would turn the cap off); +inf means no cap
        if not self.capacity > 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        self._rows: dict[object, int] = {}  # principal -> balance row
        self._principals: list[object] = []  # row -> principal
        self._balances = np.zeros(16, dtype=np.float64)
        self._hist_rows = np.zeros(32, dtype=np.intp)
        self._hist_eps = np.zeros(32, dtype=np.float64)
        self._n_hist = 0

    def __repr__(self) -> str:  # matches the former dataclass repr
        return f"{type(self).__name__}(capacity={self.capacity!r})"

    def spent(self, principal) -> float:
        """Cumulative epsilon already spent by ``principal``."""
        row = self._rows.get(principal)
        return 0.0 if row is None else float(self._balances[row])

    def remaining(self, principal) -> float:
        """Budget left before ``principal`` hits the cap."""
        return self.capacity - self.spent(principal)

    def can_spend(self, principal, epsilon: float) -> bool:
        """Whether a further ``epsilon`` spend fits under the cap."""
        _check_epsilon(epsilon)
        return self.spent(principal) + epsilon <= self.capacity + 1e-12

    def spend(self, principal, epsilon: float) -> float:
        """Record an ``epsilon`` spend; returns the new cumulative total.

        Raises :class:`BudgetExceededError` (and records nothing) when the
        spend would exceed the cap — callers should check
        :meth:`can_spend` first on hot paths.
        """
        if not self.can_spend(principal, epsilon):
            raise BudgetExceededError(
                f"principal {principal!r} has {self.remaining(principal):.3f} "
                f"of {self.capacity} left; cannot spend {epsilon}"
            )
        row = self._row_of(principal)
        self._balances[row] += epsilon
        self._record(row, epsilon)
        return float(self._balances[row])

    def spend_batch(self, principals, epsilon: float) -> None:
        """Record the same ``epsilon`` spend for a whole cohort at once.

        The batched obfuscation path registers a cohort per call; this is
        its accounting mirror. All-or-nothing: if *any* principal would
        blow its cap the whole batch is rejected and nothing is recorded,
        so the ledger can never drift out of sync with a half-applied
        cohort. The check reads only the cohort's own rows. A cohort of
        at most :data:`CHARGE_PLAIN_MAX_ROWS` principals is checked and
        applied in plain Python, a larger one with numpy; both make the
        same float additions in the same order.
        """
        _check_epsilon(epsilon)
        principals = list(principals)
        if not principals:
            return
        # resolve rows up front (allocating for new principals) so the
        # cap check and the apply both read rows
        n_before = len(self._principals)
        rows = [self._row_of(p) for p in principals]
        if len(rows) <= CHARGE_PLAIN_MAX_ROWS:
            over = self._charge_plain(rows, epsilon)
        else:
            over = self._charge_array(rows, epsilon)
        if over is not None:
            row, k = over
            p = self._principals[row]
            # all-or-nothing includes the row table: principals first seen
            # in a rejected batch must not linger as zero-balance rows
            for stray in self._principals[n_before:]:
                del self._rows[stray]
            del self._principals[n_before:]
            raise BudgetExceededError(
                f"principal {p!r} has {self.remaining(p):.3f} of "
                f"{self.capacity} left; cannot spend {k} x "
                f"{epsilon} (batch of {len(principals)} rejected)"
            )
        self._record_many(rows, epsilon)

    def _charge_plain(self, rows: list[int], epsilon: float):
        """Add ``epsilon`` to every row's balance, in plain Python, unless
        the cohort would push a row past the cap.

        Returns ``None`` once applied, else the lowest over-cap row and
        the number of times the cohort charges it, with nothing applied.
        Multiplicity-aware: a principal repeated within the cohort is
        checked against its *total* cohort spend, not pre-cohort state.
        """
        counts: dict[int, int] = {}
        for row in rows:
            counts[row] = counts.get(row, 0) + 1
        limit = self.capacity + 1e-12
        balances = self._balances
        over = [row for row, k in counts.items() if balances[row] + k * epsilon > limit]
        if over:
            row = min(over)
            return row, counts[row]
        # np.add.at's additions, one by one in cohort order
        for row in rows:
            balances[row] += epsilon
        return None

    def _charge_array(self, rows: list[int], epsilon: float):
        """:meth:`_charge_plain` with numpy. The check reads only the
        cohort's distinct rows (``np.unique`` sorts them, so the first
        over the cap is the lowest)."""
        distinct, counts = np.unique(rows, return_counts=True)
        would_be = self._balances[distinct] + counts * epsilon
        over = np.flatnonzero(would_be > self.capacity + 1e-12)
        if over.size:
            return int(distinct[over[0]]), int(counts[over[0]])
        np.add.at(self._balances, rows, epsilon)
        return None

    @property
    def history(self) -> list[tuple[object, float]]:
        """All recorded spends in order, as ``(principal, epsilon)``."""
        return [
            (self._principals[self._hist_rows[i]], float(self._hist_eps[i]))
            for i in range(self._n_hist)
        ]

    @property
    def principals(self) -> int:
        """Number of principals with at least one recorded spend."""
        return len(self._principals)

    def total_spent(self) -> float:
        """Sum of all spends across principals (for dashboards)."""
        return float(self._balances[: len(self._principals)].sum())

    def min_remaining(self) -> float:
        """Smallest remaining budget over all known principals.

        The auditor's headline number: how close the most-exposed user is
        to the cap. ``capacity`` when nobody has spent yet.
        """
        if not self._principals:
            return self.capacity
        return self.capacity - float(
            self._balances[: len(self._principals)].max()
        )

    def mean_remaining(self) -> float:
        """Average remaining budget over all known principals."""
        if not self._principals:
            return self.capacity
        return self.capacity - self.total_spent() / len(self._principals)

    # ------------------------------------------------------------------ #
    # internals                                                           #
    # ------------------------------------------------------------------ #

    def _row_of(self, principal) -> int:
        row = self._rows.get(principal)
        if row is None:
            row = len(self._principals)
            self._rows[principal] = row
            self._principals.append(principal)
            if row >= len(self._balances):
                grown = np.zeros(2 * len(self._balances), dtype=np.float64)
                grown[:row] = self._balances
                self._balances = grown
        return row

    def _record(self, row: int, epsilon: float) -> None:
        if self._n_hist >= len(self._hist_rows):
            self._grow_history(self._n_hist + 1)
        self._hist_rows[self._n_hist] = row
        self._hist_eps[self._n_hist] = epsilon
        self._n_hist += 1

    def _record_many(self, rows: np.ndarray, epsilon: float) -> None:
        end = self._n_hist + len(rows)
        if end > len(self._hist_rows):
            self._grow_history(end)
        self._hist_rows[self._n_hist : end] = rows
        self._hist_eps[self._n_hist : end] = epsilon
        self._n_hist = end

    def _grow_history(self, need: int) -> None:
        size = max(need, 2 * len(self._hist_rows))
        rows = np.zeros(size, dtype=np.intp)
        eps = np.zeros(size, dtype=np.float64)
        rows[: self._n_hist] = self._hist_rows[: self._n_hist]
        eps[: self._n_hist] = self._hist_eps[: self._n_hist]
        self._hist_rows, self._hist_eps = rows, eps

    # ------------------------------------------------------------------ #
    # serialization                                                       #
    # ------------------------------------------------------------------ #

    def history_len(self) -> int:
        """Number of spends recorded so far (O(1); a shard checks it
        against its registrations before every snapshot)."""
        return self._n_hist

    def to_dict(self) -> dict:
        """JSON-ready export of the full ledger (audits and tests).

        Balances and history are emitted as ``[principal, epsilon]`` pairs
        rather than a mapping so integer principals survive a JSON
        round-trip (JSON object keys are always strings).
        """
        return {
            "capacity": self.capacity,
            "spent": [
                [p, float(self._balances[row])]
                for row, p in enumerate(self._principals)
            ],
            "history": [
                [self._principals[self._hist_rows[i]], float(self._hist_eps[i])]
                for i in range(self._n_hist)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PrivacyBudgetLedger":
        """Rebuild a ledger exported by :meth:`to_dict`; validates totals."""
        if not isinstance(payload, dict):
            raise ValueError("ledger payload must be a dict")
        missing = {"capacity", "spent", "history"} - set(payload)
        if missing:
            raise ValueError(f"ledger payload missing fields: {sorted(missing)}")
        ledger = cls(float(payload["capacity"]))
        for entry in payload["spent"]:
            principal, value = entry
            value = float(value)
            if value <= 0 or value > ledger.capacity + 1e-12:
                raise ValueError(
                    f"spent balance {value} for {principal!r} outside "
                    f"(0, {ledger.capacity}]"
                )
            # resolve the row before indexing: _row_of may swap _balances
            # for a grown array, and the subscript target must be the new one
            row = ledger._row_of(principal)
            ledger._balances[row] = value
        for p, e in payload["history"]:
            # _row_of tolerates history-only principals (zero balance rows
            # would be caught by the totals check below)
            ledger._record(ledger._row_of(p), float(e))
        totals: dict[object, float] = {}
        for i in range(ledger._n_hist):
            p = ledger._principals[ledger._hist_rows[i]]
            totals[p] = totals.get(p, 0.0) + float(ledger._hist_eps[i])
        for p in ledger._principals:
            if abs(totals.get(p, 0.0) - ledger.spent(p)) > 1e-9:
                raise ValueError(
                    f"ledger history sums to {totals.get(p, 0.0)} for {p!r} "
                    f"but the balance says {ledger.spent(p)}"
                )
        return ledger
