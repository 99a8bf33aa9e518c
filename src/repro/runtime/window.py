"""Stream-window plumbing for the pipelined client.

:class:`SequenceReorderer` collects the answers of a pipelined stream in
whatever order the transport produced them and releases their responses
in stream order, detecting losses and duplicates. It is the piece that
lets a client accept out-of-order gateway frames without ever yielding
out-of-order results.

A stream travels as units that each cover a run of consecutive stream
seqs: a :class:`~repro.api.messages.StreamWindow` covers one seq per
row, a :class:`~repro.api.messages.StreamEnvelope` covers one. The
reorderer only sees a unit's first seq and its responses, so it needs
no api message types at all.
"""

from __future__ import annotations

__all__ = ["SequenceReorderer"]


def _damage(message: str) -> Exception:
    # imported on the failure path only: repro.runtime is the execution
    # core the api layer builds on, so the import arrow points api -> runtime
    from ..api.errors import ValidationFailed

    return ValidationFailed(message)


class SequenceReorderer:
    """Turn completion-order stream answers back into stream order.

    Feed it each answer's responses under the answer's first seq as they
    arrive, from any window, in any order; :meth:`take_ready` hands back
    the responses that are next in sequence, whole answers at a time. A
    duplicate first seq fails structurally; :meth:`finish` asserts the
    stream closed with no sequence gaps.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = int(start)
        self._buffered: dict[int, list] = {}

    @property
    def pending(self) -> int:
        """Answers held back waiting for an earlier sequence number."""
        return len(self._buffered)

    def absorb(self, seq: int, responses: list) -> None:
        """Accept the responses of stream seqs ``seq`` .. ``seq + len - 1``."""
        # any duplicate is either still buffered or already released
        # (< next) — no history set needed, so a stream-long reorderer
        # holds O(in-flight windows), not O(stream)
        if seq in self._buffered or seq < self._next:
            raise _damage(f"duplicate stream response for seq {seq}")
        self._buffered[seq] = responses

    def take_ready(self) -> list:
        """Every response that is next in stream order."""
        ready: list = []
        while self._next in self._buffered:
            responses = self._buffered.pop(self._next)
            ready += responses
            self._next += len(responses)
        return ready

    def finish(self, expected_next: int) -> None:
        """Assert all of ``[start, expected_next)`` was absorbed and taken."""
        if self._buffered or self._next != expected_next:
            if self._buffered:
                raise _damage(
                    f"stream still buffering answers from seq "
                    f"{sorted(self._buffered)[:5]}"
                )
            raise _damage(
                f"stream lost responses from seq {self._next} "
                f"(expected up to {expected_next})"
            )
