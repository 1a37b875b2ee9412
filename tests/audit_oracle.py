"""The per-cell full-grid BWH audit, kept as the oracle of the batched audit
(``equilibrium.audit_ipbwh_nonempty``).

``_audit_cell`` and ``audit_ipbwh_nonempty`` are the code the package used
before the audit became one array program, unchanged apart from their
imports, the ``np.linspace`` that the removed ``model.power_grid``
wrapped, the cells being returned bare, and the loop over the power grid
being split into ``grid_cells`` and ``audit_cells``: every cell prices its
family-1 gaps on full infiltration-by-deviation grids. ``AuditCell`` is the
per-cell record the package's audit returned before it returned columns,
and ``audit_csv_rows`` its per-cell CSV formatter. Every cell of the
batched audit must equal the oracle's bit for bit, and the CLI's rows must
equal ``audit_csv_rows``. ``grid_cells`` also builds the cells of the grids
the package's audit no longer takes, for its kernel
(``equilibrium._audit_cells``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from poolgame.model import AttackKind
from poolgame.payoff import (
    one_sided_attacker,
    one_sided_victim,
    optimal_bwh_infiltration,
    optimal_faw_infiltration,
    payoff_pair_raw,
)


@dataclass(frozen=True)
class AuditCell:
    alpha_1: float
    alpha_2: float
    f_value: float  # margin under the baseline assumption (may be negative)
    k_chosen: float  # BWH power whose damage covers the worst-case gap
    passed: bool


def audit_csv_rows(cells):
    yield "alpha1,alpha2,f_value,k_chosen,passed"
    for c in cells:
        yield f"{c.alpha_1:.6f},{c.alpha_2:.6f},{c.f_value:.8f},{c.k_chosen:.8f},{int(c.passed)}"


def _audit_cell(a1: float, a2: float, n: int) -> AuditCell:
    """Check one power cell: some BWH power of pool 1 must out-damage every
    single-stage gain pool 2 can grab by deviating, in both context families."""
    m1b = optimal_bwh_infiltration(a1, a2)
    m2b = optimal_bwh_infiltration(a2, a1)
    f_dmg = optimal_faw_infiltration(a1, a2)
    f_cap = max(m1b, f_dmg)

    dev2 = np.linspace(0.0, a2, n)  # pool 2's deviation (FAW dominates for the gain)

    # family 1: pool 1 has attacked with (f1, 0); gap between pool 2 staying
    # honest and deviating with (f2, 0)
    def family1_min(f1_cap):
        f1 = np.linspace(0.0, f1_cap, n)[:, None]
        f2 = dev2[None, :]
        u_honest = payoff_pair_raw(a1, a2, f1, 0.0, 0.0, 0.0)[1]
        u_dev = payoff_pair_raw(a1, a2, f1, 0.0, f2, 0.0)[1]
        return float(np.min(u_honest - u_dev))

    # family 2: pool 1 honest; gap between pool 2 playing its prescribed BWH
    # retaliation (0, b2) and deviating with (f2, 0)
    b2 = np.linspace(0.0, m2b, n)[:, None]
    u_presc = one_sided_attacker(AttackKind.BWH, a2, a1, b2)
    u_dev = one_sided_attacker(AttackKind.FAW, a2, a1, dev2[None, :])
    t2 = float(np.min(u_presc - u_dev))

    def damage_at(b):
        return -float(one_sided_victim(AttackKind.BWH, a1, a2, b))

    t1_cap = family1_min(f_cap)
    gap = -min(t1_cap, t2)  # worst-case gain pool 2 can secure
    f_value = damage_at(m1b) - gap
    if f_value > 0.0:
        return AuditCell(a1, a2, f_value, m1b, True)
    for kk in np.linspace(m1b, a1, n):
        # max(kk, f_cap) is exactly f_cap for kk <= f_cap, so the minimum
        # computed above is the same float family1_min would return again
        t1 = t1_cap if kk <= f_cap else family1_min(kk)
        fk = damage_at(kk) + min(t1, t2)
        if fk > 0.0:
            return AuditCell(a1, a2, f_value, float(kk), True)
    return AuditCell(a1, a2, f_value, float("nan"), False)


def grid_cells(
    power_grid_resolution: int,
    power_lo: float = 0.01,
    power_hi: float = 0.45,
    power_cap: float = 0.9,
):
    """The power grid's cells in row order (alpha_1, then alpha_2), skipping
    those whose powers sum above ``power_cap``, as two arrays."""
    powers = np.linspace(power_lo, power_hi, power_grid_resolution)
    cells = []
    for a1 in powers:
        for a2 in powers:
            if a1 + a2 > power_cap:
                continue
            cells.append((a1, a2))
    a1, a2 = np.array(cells, float).reshape(-1, 2).T.copy()
    return a1, a2


def audit_cells(a1, a2, n: int) -> tuple[AuditCell, ...]:
    """``_audit_cell`` of every cell (a1[i], a2[i]) in order."""
    return tuple(_audit_cell(float(x), float(y), n) for x, y in zip(a1, a2))


def audit_ipbwh_nonempty(
    power_grid_resolution: int = 30,
    infiltration_resolution: int = 120,
    power_lo: float = 0.01,
    power_hi: float = 0.45,
    power_cap: float = 0.9,
) -> tuple[AuditCell, ...]:
    """Sweep power cells and verify a deterring BWH power always exists.

    For each (alpha_1, alpha_2) the audit first assumes the one-sided BWH
    optimum of pool 1 is available; where its damage fails to cover the
    worst-case deviation gap, it searches larger powers up to pool 1's full
    size. Cells where no power works are reported as failures (expected: none
    on the default grid; pushing the opponent to exactly half the network,
    power_hi=0.5, produces a sliver of genuine failures where no deterring
    power exists).
    """
    cells = grid_cells(power_grid_resolution, power_lo, power_hi, power_cap)
    return audit_cells(*cells, infiltration_resolution)
