"""Multi-tenant admission control: token buckets + fair queuing.

Both structures are deliberately plain (no asyncio, no locks beyond
what the caller holds — the scheduler only touches them from the
event-loop thread) so they can be unit-tested with an injectable
clock and composed anywhere. See docs/SERVICE.md §3.
"""

import time
from collections import deque


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, capacity
    ``burst``. Acquisition is non-blocking — the service's contract is
    *reject with Retry-After*, never hold a connection hostage."""

    def __init__(self, rate, burst, clock=time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self.tokens = float(burst)
        self._last = clock()

    def _refill(self):
        now = self.clock()
        elapsed = max(now - self._last, 0.0)
        self._last = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)

    def try_acquire(self, n=1):
        """Take ``n`` tokens if available; False otherwise."""
        self._refill()
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def retry_after(self, n=1):
        """Seconds until ``n`` tokens will be available (the 429
        ``Retry-After`` hint)."""
        self._refill()
        deficit = n - self.tokens
        if deficit <= 0:
            return 0.0
        if self.rate <= 0:
            return float("inf")
        return deficit / self.rate


class FairQueue:
    """Round-robin FIFO over per-tenant sub-queues.

    ``pop`` serves one item from the tenant at the head of the rotation
    and moves that tenant to the back, so a tenant queueing 1000 jobs
    cannot starve a tenant queueing one — each rotation serves every
    waiting tenant once. ``depth`` bounds each tenant's sub-queue
    (``push`` returns False at the bound; the service maps that to
    HTTP 429)."""

    def __init__(self, depth=64):
        self.depth = max(1, int(depth))
        self._queues = {}      # tenant -> deque of items
        self._order = deque()  # round-robin rotation of tenant names
        self._size = 0

    def __len__(self):
        return self._size

    def depth_of(self, tenant):
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0

    def full(self, tenant):
        """Would a ``push`` for ``tenant`` be rejected right now? Lets
        the scheduler check capacity *before* charging a rate-limit
        token, so a bounce off a full queue costs the tenant nothing."""
        return self.depth_of(tenant) >= self.depth

    def push(self, tenant, item):
        """Enqueue for ``tenant``; False when its sub-queue is full."""
        queue = self._queues.get(tenant)
        if queue is None:
            queue = deque()
            self._queues[tenant] = queue
            self._order.append(tenant)
        if len(queue) >= self.depth:
            return False
        queue.append(item)
        self._size += 1
        return True

    def pop(self):
        """The next item in round-robin tenant order, or None."""
        while self._order:
            tenant = self._order[0]
            queue = self._queues[tenant]
            if not queue:  # drained tenant: drop from the rotation
                self._order.popleft()
                del self._queues[tenant]
                continue
            item = queue.popleft()
            self._size -= 1
            self._order.popleft()
            if queue:
                self._order.append(tenant)
            else:
                del self._queues[tenant]
            return item
        return None
