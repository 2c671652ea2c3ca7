"""Direct tests of the fraction-free elimination inside ``hankel.det_rational``
on integer matrices, checked against cofactor expansion."""

from __future__ import annotations

import random

from hankel_approx.hankel import det_rational

from .oracles import cofactor_det


def test_pure_kernel_basics():
    assert det_rational([]) == 1
    assert det_rational([[7]]) == 7
    assert det_rational([[1, 2], [3, 4]]) == -2
    assert det_rational([[0, 1], [1, 0]]) == -1
    assert det_rational([[1, 2], [2, 4]]) == 0
    assert det_rational([[0, 0], [0, 0]]) == 0


def test_pure_kernel_zero_leading_column():
    # Every leading entry zero forces a pivot search at each step.
    rows = [[0, 0, 1], [0, 2, 3], [4, 5, 6]]
    assert det_rational(rows) == cofactor_det(rows) == -8


def test_pure_kernel_matches_cofactor_random():
    rng = random.Random(246810)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_rational(rows) == cofactor_det(rows)
