"""The micro-batch loop shared by the screening service and the gateway shards."""

from __future__ import annotations

import queue
import threading
import time

from repro.utils import get_logger

_LOG = get_logger("serving.batcher")

#: Inbox sentinel telling a batch loop to exit after its in-hand batch.
STOP = object()


class MicroBatcher:
    """Mixin owning the one place where queued requests become forward passes.

    It fills a batch within a deadline, groups it by design, and runs one
    ``predict_batch`` per group.  A request whose payload cannot be
    materialised fails alone and the rest of its group still shares one
    forward pass; a failed checkpoint load or forward pass fails its group.

    The subclass provides ``_inbox``, ``registry``, ``max_batch`` and
    ``max_wait``, plus ``_materialise(request, predictor)`` (features),
    ``_resolve_group(predictor, requests, results)`` and
    ``_fail_requests(requests, error)``.
    """

    def _is_control(self, item) -> bool:
        """Whether a dequeued item ends a fill instead of joining the batch."""
        return item is STOP

    def _admit(self, item) -> tuple:
        """The requests one dequeued item contributes to the batch."""
        return (item,)

    def _before_load(self, design_name: str) -> None:
        """Runs before each group's registry lookup; raising fails the group."""

    def _fill(self, first) -> tuple[list, object]:
        """Up to ``max_batch`` requests within ``max_wait`` of ``first``, plus
        the control item that ended the fill early (``None`` if none did)."""
        batch = list(self._admit(first))
        deadline = time.perf_counter() + self.max_wait
        while len(batch) < self.max_batch:
            timeout = deadline - time.perf_counter()
            try:
                item = self._inbox.get(timeout=timeout) if timeout > 0 else self._inbox.get_nowait()
            except queue.Empty:
                break
            if self._is_control(item):
                return batch, item
            batch.extend(self._admit(item))
        return batch, None

    def _predict_groups(self, batch: list) -> None:
        """One ``predict_batch`` per design group; failures stay in the group."""
        groups: dict[str, list] = {}
        for request in batch:
            groups.setdefault(request.design_name, []).append(request)
        for design_name, requests in groups.items():
            try:
                self._before_load(design_name)
                predictor = self.registry.get(design_name)
            except Exception as error:  # noqa: BLE001 - forwarded to callers
                self._fail(design_name, requests, error)
                continue
            ready, features = [], []
            for request in requests:
                try:
                    features.append(self._materialise(request, predictor))
                    ready.append(request)
                except Exception as error:  # noqa: BLE001 - forwarded to the caller
                    self._fail(design_name, [request], error)
            if not ready:
                continue
            try:
                results = predictor.predict_batch(features, max_batch=self.max_batch)
            except Exception as error:  # noqa: BLE001 - forwarded to callers
                self._fail(design_name, ready, error)
                continue
            self._resolve_group(predictor, ready, results)

    def _fail(self, design_name: str, requests: list, error: Exception) -> None:
        self._fail_requests(requests, error)
        _LOG.warning("%s: %d request(s) for design %s failed: %s",
                     threading.current_thread().name, len(requests), design_name, error)
