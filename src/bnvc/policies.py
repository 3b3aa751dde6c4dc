"""Reference-list duplication policies.

When fewer decoded frames exist than the model's reference count, the
list is padded by repeating either the newest decoded frame (NEAR) or
the oldest one (FURTHER). The codec pads its warped reference features
with this rule and `lossmodel.total_loss` pads P-frame indices with it,
but the lists differ: the codec's starts with the intra frame. At P
frame 2 with n_ref 4 the model pads [1] to [1, 1, 1, 1] under both
policies; the codec pads [I, P1] to [I, P1, P1, P1] (NEAR) or
[I, I, I, P1] (FURTHER).
"""

from __future__ import annotations

import enum
from typing import Sequence, TypeVar

from .errors import UsageError, check_int, check_type

T = TypeVar("T")


class DuplicationPolicy(enum.Enum):
    NEAR = "near"
    FURTHER = "further"


def pad_references(items: Sequence[T], n: int, policy: DuplicationPolicy) -> list[T]:
    """Pad or trim an oldest-to-newest reference list to exactly n entries.

    With m >= n entries the newest n are kept (no duplication). With
    m < n, NEAR repeats the newest entry and FURTHER repeats the oldest;
    the result stays ordered oldest to newest.
    """
    check_type("policy", policy, DuplicationPolicy)
    check_int("reference count", n, 1)
    if not items:
        raise UsageError("reference list is empty")
    items = list(items)
    if len(items) >= n:
        return items[-n:]
    pad = n - len(items)
    if policy is DuplicationPolicy.NEAR:
        return items + [items[-1]] * pad
    return [items[0]] * pad + items
