"""Left-to-right float reduction for every sum that reaches a digest.

Builtin :func:`sum` over floats is Neumaier-compensated from CPython
3.12 (``sum([0.1] * 10)`` is ``0.9999999999999999`` on 3.11 and
``1.0`` on 3.12), and ``np.sum`` adds pairwise.  Either would move the
utility means, the KL trigger and the FSD weights — and with them the
run digests — depending on the interpreter.  :func:`ordered_sum` adds
in iteration order with plain IEEE-754 doubles on every version, which
is exactly what builtin ``sum`` did before 3.12.

Stdlib-only on purpose: the module loads on its own by file path, so
an interpreter without the package's dependencies can check it.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable


def ordered_sum(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + ...`` strictly left to right (``0.0`` if empty)."""
    return reduce(operator.add, values, 0.0)
