"""Property tests for the shared micro-batch fill (derandomized).

``MicroBatcher._fill`` is the one deadline-bounded drain that both the
screening service and the gateway shard workers run.  With ``max_wait=0``
it drains only what is already queued, so random interleavings of requests
and control items replay deterministically.
"""

from __future__ import annotations

import queue

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.batcher import MicroBatcher


class Control:
    """A control item (shutdown sentinel, swap command) in the inbox."""

    def __init__(self, index: int):
        self.index = index


class FillOnly(MicroBatcher):
    """Just enough of a batcher to run the fill; ``max_wait=0`` drains what is queued."""

    max_wait = 0.0

    def __init__(self, inbox: "queue.Queue", max_batch: int):
        self._inbox = inbox
        self.max_batch = max_batch

    @staticmethod
    def _is_control(item) -> bool:
        return isinstance(item, Control)


def _drain(kinds: list[bool], max_batch: int):
    """Queue requests (``False``) and controls (``True``); run the fill loop.

    Returns the inbox's items as queued, and the events the loop produced in
    order: each batch (a list) and each control item the caller saw.
    """
    items = [Control(index) if control else index for index, control in enumerate(kinds)]
    inbox: "queue.Queue" = queue.Queue()
    for item in items:
        inbox.put(item)
    batcher = FillOnly(inbox, max_batch)
    events: list = []
    while not inbox.empty():
        first = inbox.get_nowait()
        if isinstance(first, Control):
            events.append(first)
            continue
        batch, control = batcher._fill(first)
        assert control is None or isinstance(control, Control)
        # A fill ends early only at a control item or an empty inbox.
        assert len(batch) == max_batch or control is not None or inbox.empty()
        events.append(batch)
        if control is not None:
            events.append(control)
    return items, events


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kinds=st.lists(st.booleans(), max_size=40),
    max_batch=st.integers(min_value=1, max_value=6),
)
def test_fill_batches_requests_in_order_and_stops_at_controls(kinds, max_batch):
    items, events = _drain(kinds, max_batch)
    batches = [event for event in events if isinstance(event, list)]
    # No batch exceeds max_batch, and none is empty.
    assert all(1 <= len(batch) <= max_batch for batch in batches)
    # Every request lands in exactly one batch, in FIFO order.
    requests = [item for item in items if not isinstance(item, Control)]
    assert [request for batch in batches for request in batch] == requests
    # Each control item is handed back exactly where it was queued: a fill
    # stops at the first control, and nothing behind it joins the batch.
    flattened = [
        item for event in events for item in (event if isinstance(event, list) else [event])
    ]
    assert flattened == items
