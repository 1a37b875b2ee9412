"""The loop enumeration of the n-pool direct revenue and the first
``PairwiseActionMatrix.validate``, kept as oracles of the array program
(``engine._npool_direct_revenue``) and of the cheaper validation.

``npool_direct_revenue`` and ``validate`` are the code the package used
before, unchanged apart from their imports and ``validate`` taking the
matrix as an argument. The array program must equal ``npool_direct_revenue``
bit for bit, and the package's ``validate`` must raise the same exception
class with the same message as ``validate``, or pass where it passes.
"""

from __future__ import annotations

import itertools

import numpy as np

from poolgame.engine import PairwiseActionMatrix
from poolgame.model import InfiltrationBudgetExceeded, InvalidScenario


def validate(matrix: PairwiseActionMatrix, alphas) -> PairwiseActionMatrix:
    # written so that NaN fails every test
    if not (np.all(matrix.faw >= 0) and np.all(matrix.bwh >= 0)):
        raise InvalidScenario("infiltration powers must be non-negative numbers")
    if np.any((matrix.faw > 0) & (matrix.bwh > 0)):
        raise InvalidScenario("FAW and BWH are mutually exclusive per pair")
    if np.any(np.diag(matrix.faw + matrix.bwh) > 0):
        raise InvalidScenario("a pool cannot infiltrate itself")
    out = (matrix.faw + matrix.bwh).sum(axis=1)
    if not np.all(out <= np.asarray(alphas) + 1e-12):
        raise InfiltrationBudgetExceeded(
            f"outgoing infiltration {out} exceeds pool powers {alphas}"
        )
    return matrix


def npool_direct_revenue(alphas, matrix: PairwiseActionMatrix) -> np.ndarray:
    """Exact expected per-round direct block revenue per pool.

    Home finds end rounds outright. FAW detachments withhold; when the first
    round-ending find is external, every withheld block is released and one of
    the released branches wins uniformly (the external block always loses).
    """
    alphas = np.asarray(alphas, float)
    n = alphas.size
    out = (matrix.faw + matrix.bwh).sum(axis=1)
    home = alphas - out
    ext = 1.0 - alphas.sum()
    theta = ext + home.sum()
    flags = [
        (matrix.faw[i, j], j)
        for i in range(n)
        for j in range(n)
        if matrix.faw[i, j] > 0.0
    ]
    if len(flags) > 16:
        raise InvalidScenario("too many simultaneous FAW infiltrations for exact enumeration")
    revenue = home / theta
    for bits in itertools.product((0, 1), repeat=len(flags)):
        released = [m for m, on in enumerate(bits) if on]
        if not released:
            continue
        idle = sum(flags[m][0] for m, on in enumerate(bits) if not on)
        p = 0.0
        for r in range(len(released) + 1):
            for sub in itertools.combinations(released, r):
                p += (-1) ** len(sub) / (theta + idle + sum(flags[m][0] for m in sub))
        p *= ext
        for m in released:
            revenue[flags[m][1]] += p / len(released)
    return revenue
