"""Stream-window plumbing shared by every pipelined layer.

Three small pieces that used to be re-implemented (or open-coded) in the
client's stream drain, the backends' chunked batch dispatch and
the gateway tests:

* :func:`unwrap` / :func:`rewrap` — take a request out of its
  :class:`~repro.api.messages.StreamEnvelope` (if any) and put the
  response back under the same ``seq``;
* :class:`SequenceReorderer` — collects sequence-numbered responses in
  whatever order a pipelined transport produced them and releases them
  in stream order, detecting losses and duplicates. This is the piece
  that lets a client accept out-of-order gateway frames without ever
  yielding out-of-order results.

The api message types are imported lazily: :mod:`repro.runtime` is the
execution core the api layer builds *on*, so the dependency arrow at
import time points only one way (api -> runtime) and either package can
be imported first.
"""

from __future__ import annotations

__all__ = ["unwrap", "rewrap", "SequenceReorderer"]


def unwrap(item) -> tuple[int | None, object]:
    """``(seq, verb)`` for an envelope, ``(None, item)`` for a bare verb."""
    from ..api.messages import StreamEnvelope

    if isinstance(item, StreamEnvelope):
        return item.seq, item.item
    return None, item


def rewrap(seq: int | None, response):
    """Match :func:`unwrap`: envelope the response iff a ``seq`` came in."""
    if seq is None:
        return response
    from ..api.messages import StreamItemResult

    return StreamItemResult(seq=seq, item=response)


class SequenceReorderer:
    """Turn completion-order stream results back into stream order.

    Feed it :class:`~repro.api.messages.BatchResult`\\ s (or individual
    :class:`~repro.api.messages.StreamItemResult`\\ s) as they arrive —
    from any window, in any order — and :meth:`take_ready` hands back
    the unwrapped responses that are next in sequence. Duplicate and
    non-envelope results fail structurally; :meth:`finish` asserts the
    stream closed with no sequence gaps.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = int(start)
        self._buffered: dict[int, object] = {}

    @property
    def pending(self) -> int:
        """Responses held back waiting for an earlier sequence number."""
        return len(self._buffered)

    def absorb(self, result) -> None:
        """Accept one transport result: a batch of envelopes or one envelope."""
        from ..api.errors import ValidationFailed
        from ..api.messages import BatchResult, StreamItemResult

        items = result.items if isinstance(result, BatchResult) else (result,)
        for item in items:
            if not isinstance(item, StreamItemResult):
                raise ValidationFailed(
                    f"stream answered with {type(item).__name__}, "
                    "expected an envelope result"
                )
            seq = int(item.seq)
            # any duplicate is either still buffered or already released
            # (< next) — no history set needed, so a stream-long reorderer
            # holds O(in-flight window), not O(stream)
            if seq in self._buffered or seq < self._next:
                raise ValidationFailed(f"duplicate stream response for seq {seq}")
            self._buffered[seq] = item.item

    def take_ready(self) -> list:
        """Every response that is next in stream order, unwrapped."""
        ready: list = []
        while self._next in self._buffered:
            ready.append(self._buffered.pop(self._next))
            self._next += 1
        return ready

    def finish(self, expected_next: int) -> None:
        """Assert all of ``[start, expected_next)`` was absorbed and taken."""
        from ..api.errors import ValidationFailed

        if self._buffered or self._next != expected_next:
            missing = [
                s for s in range(self._next, expected_next) if s not in self._buffered
            ]
            raise ValidationFailed(
                f"stream lost responses for seq {missing[:5]}"
                if missing
                else f"stream still buffering {sorted(self._buffered)[:5]}"
            )
