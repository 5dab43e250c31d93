"""Property tests for the shard worker's micro-batch fill (derandomized).

``ShardWorker._fill_batch`` is the one deadline-bounded drain every
screening request passes through.  With ``max_wait=0`` it drains only what
is already queued, so random interleavings of requests and control items
(swap commands) replay deterministically.
"""

from __future__ import annotations

import queue

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayRequest, ShardWorker, SwapCommand


def _worker(inbox: "queue.Queue", max_batch: int) -> ShardWorker:
    """Just enough of a worker to run the fill; ``max_wait=0`` drains what is queued."""
    return ShardWorker(
        shard_id=0,
        inbox=inbox,
        registry=None,
        cache=None,
        cache_lock=None,
        design_factory=None,
        max_batch=max_batch,
        max_wait=0.0,
        instruments=None,
        on_crash=None,
        on_healthy=None,
    )


def _drain(kinds: list[bool], max_batch: int):
    """Queue requests (``False``) and swap commands (``True``); run the fill loop.

    Returns the inbox's items as queued, and the events the loop produced in
    order: each batch (a list) and each control item the caller saw.
    """
    items = [
        SwapCommand(design_name=str(index)) if control else GatewayRequest(index, "design")
        for index, control in enumerate(kinds)
    ]
    inbox: "queue.Queue" = queue.Queue()
    for item in items:
        inbox.put(item)
    worker = _worker(inbox, max_batch)
    events: list = []
    while not inbox.empty():
        first = inbox.get_nowait()
        if isinstance(first, SwapCommand):
            events.append(first)
            continue
        batch, control = worker._fill_batch(first)
        assert control is None or isinstance(control, SwapCommand)
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
    requests = [item for item in items if isinstance(item, GatewayRequest)]
    assert [request for batch in batches for request in batch] == requests
    # Each control item is handed back exactly where it was queued: a fill
    # stops at the first control, and nothing behind it joins the batch.
    flattened = [
        item for event in events for item in (event if isinstance(event, list) else [event])
    ]
    assert [id(item) for item in flattened] == [id(item) for item in items]
