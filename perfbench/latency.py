"""Latency-injecting chat backend for the ``slow-backend`` workload.

It wraps a canned backend from ``instructsmith.hermetic``. Each request
first sleeps a lognormal delay, then gets the canned reply. The delay is
keyed on sha256(workload seed, request text), so a request costs the same on
every run and the replies (hence the dataset bytes) do not depend on it.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from statistics import NormalDist

MEDIAN_DELAY_S = 0.020
SIGMA = 0.5

_NORMAL = NormalDist()


def request_delay(seed: int, text: str, median_s: float = MEDIAN_DELAY_S,
                  sigma: float = SIGMA) -> float:
    """Seconds to wait for ``text``: lognormal with the given median."""
    digest = hashlib.sha256(f"{seed}\0{text}".encode("utf-8")).digest()
    # 53 bits mapped into the open interval (0, 1)
    u = (int.from_bytes(digest[:8], "big") >> 11 | 1) / float(1 << 53)
    return median_s * math.exp(sigma * _NORMAL.inv_cdf(u))


class LatencyBackend:
    """A chat backend that sleeps ``request_delay`` before delegating.

    It counts sends in flight, so a run can confirm that it never had more
    outstanding than its ``max_in_flight``.
    """

    def __init__(self, inner, seed: int):
        self.inner = inner
        self.seed = seed
        self.model_name = inner.model_name
        self.in_flight = 0
        self.peak_in_flight = 0
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            time.sleep(request_delay(self.seed, request.user_text))
            return self.inner.send(request)
        finally:
            with self._lock:
                self.in_flight -= 1
