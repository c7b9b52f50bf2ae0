"""Resource caps shared by the search and enumeration procedures.

Every potentially explosive loop (clone closure, valuation scans, proof
search memo tables) checks against a ``ResourceCaps`` instance and raises
``CapExceeded`` instead of running away.  A cap hit is an honest outcome,
not an error: callers that produce decision reports translate it into a
``cap-exceeded`` answer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable


class CapExceeded(Exception):
    """Raised when a configured resource cap is hit.

    Carries the cap name and the limit so reports can say what gave out.
    """

    def __init__(self, cap: str, limit: int, detail: str = "") -> None:
        self.cap = cap
        self.limit = limit
        self.detail = detail
        msg = f"cap exceeded: {cap} (limit {limit})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class ResourceCaps:
    # ceiling on distinct term functions tracked during clone closure
    max_clone: int = 1_000_000
    # ceiling on assignment tuples scanned in a single validity/consequence pass
    max_tuples: int = 2**24
    # ceiling on memoised sequents in proof search
    memo_limit: int = 1_000_000

    def check_clone(self, count: int) -> None:
        if count > self.max_clone:
            raise CapExceeded("max_clone", self.max_clone)

    def check_tuples(self, count: int) -> None:
        if count > self.max_tuples:
            raise CapExceeded("max_tuples", self.max_tuples)

    def check_memo(self, count: int) -> None:
        if count > self.memo_limit:
            raise CapExceeded("memo_limit", self.memo_limit)


DEFAULT_CAPS = ResourceCaps()


class Memo(OrderedDict):
    """Values kept between calls by key, least recently used first, each
    stored as (value, weight).  Past `budget` of summed weight the least
    recently used go, and a value heavier than the budget is not kept."""

    def __init__(self, budget: int) -> None:
        super().__init__()
        self.budget, self.weight = budget, 0

    def clear(self) -> None:
        super().clear()
        self.weight = 0

    def recall(self, key: Hashable) -> Any:
        """The value kept at key, now the most recently used, or None."""
        if key in self:
            self.move_to_end(key)
        return self.get(key, (None,))[0]

    def keep(self, key: Hashable, value: Any, weight: int) -> Any:
        """Keeps value at a key not kept, within the budget; returns value."""
        if weight <= self.budget:
            self[key] = value, weight
            self.weight += weight
            while self.weight > self.budget:
                self.weight -= self.popitem(last=False)[1][1]
        return value
