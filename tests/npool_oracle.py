"""The loop enumeration of the n-pool direct revenue, the first
``PairwiseActionMatrix.validate`` and the golden-section attack search,
kept as oracles of the set-weight sum (``engine._npool_direct_revenue``),
of the cheaper validation and of the Newton attack search, and a
quadrature of the direct revenue for more flags than the loop can price.

``npool_direct_revenue``, ``validate`` and ``optimal_simultaneous_attack``
are the code the package used before, unchanged apart from their imports
and ``validate`` taking the matrix as an argument. The set-weight sum must
be within 1e-13 of ``npool_direct_revenue`` and of
``npool_direct_revenue_quadrature``, and the package's ``validate``
must raise the same exception class with the same message as ``validate``
on well-formed matrices, or pass where it passes. The oracle search prices
every point with the public ``npool_stage_payoffs``; it resolves the attack
to about 4e-9, and the package's search must do at least as well.
"""

from __future__ import annotations

import itertools

import numpy as np

from poolgame.engine import PairwiseActionMatrix, npool_stage_payoffs
from poolgame.equilibrium import golden_max
from poolgame.model import AttackKind, InfiltrationBudgetExceeded, InvalidScenario

ASCENT_SWEEPS = 5  # coordinate-ascent passes of optimal_simultaneous_attack


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


def npool_direct_revenue_quadrature(alphas, matrix: PairwiseActionMatrix) -> np.ndarray:
    """The same revenue as a double integral over the round's length t and
    a share variable s: flag f's host earns

        ext * int_0^inf int_0^1 exp(-theta t) (1 - exp(-phi_f t))
              * prod_{m != f} (exp(-phi_m t) + s (1 - exp(-phi_m t))) ds dt,

    an external find at t with flag f released, and 1/|R| = int s^(|R|-1) ds
    of the released set R. The integrand is a polynomial of degree F - 1 in
    s, so F-point Gauss-Legendre is exact; theta t takes 120-point
    Gauss-Laguerre (numpy's 200-point nodes overflow to NaN).
    """
    alphas = np.asarray(alphas, float)
    home = alphas - (matrix.faw + matrix.bwh).sum(axis=1)
    ext = 1.0 - alphas.sum()
    theta = ext + home.sum()
    revenue = home / theta
    i, j = np.nonzero(matrix.faw > 0.0)
    phi = matrix.faw[i, j]
    if not phi.size:
        return revenue
    u, u_weight = np.polynomial.laguerre.laggauss(120)
    x, x_weight = np.polynomial.legendre.leggauss(phi.size)
    s, s_weight = (x + 1.0) / 2.0, x_weight / 2.0
    fired = -np.expm1(-np.outer(u / theta, phi))  # [t, m]
    share = (1.0 - fired)[:, None, :] + s[:, None] * fired[:, None, :]  # [t, s, m]
    for f in range(phi.size):
        others = np.delete(share, f, axis=2).prod(axis=2)  # [t, s]
        revenue[j[f]] += ext / theta * (u_weight @ (fired[:, f] * (others @ s_weight)))
    return revenue


def optimal_simultaneous_attack(alphas, attacker: int, kind: AttackKind) -> np.ndarray:
    """Coordinate ascent with golden-section line search over each victim's
    infiltration power, respecting the attacker's total power budget."""
    alphas = np.asarray(alphas, float)
    n = alphas.size
    x = np.zeros(n)
    m = PairwiseActionMatrix.zeros(n)
    row = (m.faw if kind is AttackKind.FAW else m.bwh)[attacker]  # a view, refilled per point
    for _ in range(ASCENT_SWEEPS):
        for j in range(n):
            if j == attacker:
                continue
            budget = alphas[attacker] - (x.sum() - x[j])

            def line(v, j=j):
                row[:] = x
                row[j] = v
                return float(npool_stage_payoffs(alphas, m)[attacker])

            x[j] = golden_max(line, 0.0, budget, tol=1e-9)
    return x
