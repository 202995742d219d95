"""The one left-to-right float reduction behind digest-bearing means.

CI runs this file alone on an interpreter whose builtin ``sum`` is
compensated (CPython >= 3.12), so a swap back to ``sum`` fails there
even though the 3.9/3.11 matrix would still pass.
"""

from __future__ import annotations

from repro.simulator.ordered import ordered_sum


def test_adds_left_to_right_without_compensation():
    # Builtin sum() gives 1.0 here from CPython 3.12 on.
    assert ordered_sum([0.1] * 10) == 0.9999999999999999
    # 1e16 + 1.0 rounds back to 1e16, so the 1.0 is lost in order.
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0


def test_accepts_a_generator():
    assert ordered_sum(0.1 for _ in range(10)) == 0.9999999999999999


def test_empty_input_is_float_zero():
    total = ordered_sum([])
    assert total == 0.0 and isinstance(total, float)
