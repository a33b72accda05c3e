"""A bounded, insertion-ordered memo.

The process-wide memos of this package (parsed address texts, message
digests, verified signatures) all follow one rule: look up; on a miss the
caller computes and, if the result is worth keeping, stores it; at the
limit the oldest entry goes first.  What is *not* stored — a failed
verification, a malformed address — is the caller's decision: nothing
reaches the memo except through :meth:`BoundedMemo.put`.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BoundedMemo(Generic[K, V]):
    """At most ``limit`` entries, evicted oldest-first; values are never ``None``."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._entries: dict[K, V] = {}

    def get(self, key: K) -> Optional[V]:
        """The value stored under exactly ``key``, or ``None``."""
        return self._entries.get(key)

    def put(self, key: K, value: V) -> None:
        """Store a new entry, evicting the oldest one at the limit."""
        if len(self._entries) >= self.limit:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = value

    def clear(self) -> None:
        """Forget everything."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[K]:
        """The stored keys, oldest first."""
        return iter(self._entries)
