"""Smith normal form with unimodular transforms, over the integers.

:func:`~steinberg_ext.homology.smith_divisors` imports this module only for
a non-unit block left after its unit pivots, which no row a command builds
leaves; :mod:`~steinberg_ext.homology` re-exports its names.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ContractError
from .homology import IntMatrix


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class SmithForm(NamedTuple):
    divisors: tuple[int, ...]
    u: IntMatrix  # rows x rows, unimodular
    v: IntMatrix  # cols x cols, unimodular


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize ``u * m * v = diag(divisors)`` with positive divisors in a
    divisibility chain and unimodular transforms built from elementary ops."""
    nr, nc = m.rows, m.cols
    d = m.to_rows()
    u = IntMatrix.identity(nr).to_rows()
    v = IntMatrix.identity(nc).to_rows()

    def row_combine(r1: int, r2: int, a: int, b: int, c: int, e: int) -> None:
        # (row r1, row r2) <- (a*r1 + b*r2, c*r1 + e*r2); a*e - b*c = ±1
        for mat in (d, u):
            m1, m2 = mat[r1], mat[r2]
            for k in range(len(m1)):
                m1[k], m2[k] = a * m1[k] + b * m2[k], c * m1[k] + e * m2[k]

    def col_combine(c1: int, c2: int, a: int, b: int, c: int, e: int) -> None:
        for mat in (d, v):
            for row in mat:
                row[c1], row[c2] = a * row[c1] + b * row[c2], c * row[c1] + e * row[c2]

    def clear_col_entry(t: int, i: int) -> None:
        a, b = d[t][t], d[i][t]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            row_combine(t, i, 1, 0, -(b // a), 1)
        else:
            g, x, y = _xgcd(a, b)
            row_combine(t, i, x, y, -(b // g), a // g)

    def clear_row_entry(t: int, j: int) -> None:
        a, b = d[t][t], d[t][j]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            col_combine(t, j, 1, 0, -(b // a), 1)
        else:
            g, x, y = _xgcd(a, b)
            col_combine(t, j, x, y, -(b // g), a // g)

    t = 0
    while t < min(nr, nc):
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                val = abs(d[i][j])
                if val and (best is None or val < best):
                    best, pivot = val, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for mat in (d, v):
                for row in mat:
                    row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, nr):
                clear_col_entry(t, i)
            if any(d[t][j] for j in range(t + 1, nc)):
                for j in range(t + 1, nc):
                    clear_row_entry(t, j)
            if any(d[i][t] for i in range(t + 1, nr)):
                continue
            # pivot must divide the whole trailing block for the chain property
            offender = None
            p = d[t][t]
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if d[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for k in range(nc):
                d[t][k] += d[offender][k]
            for k in range(nr):
                u[t][k] += u[offender][k]
        if d[t][t] < 0:
            for k in range(nc):
                d[t][k] = -d[t][k]
            for k in range(nr):
                u[t][k] = -u[t][k]
        t += 1

    divisors = [d[i][i] for i in range(t)]
    for a, b in zip(divisors, divisors[1:]):
        if b % a:
            raise ContractError("Smith normal form lost the divisibility chain")
    return SmithForm(tuple(divisors), IntMatrix.from_rows(u) if nr else IntMatrix.zero(0, 0),
                     IntMatrix.from_rows(v) if nc else IntMatrix.zero(0, 0))
