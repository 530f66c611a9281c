"""The sampling-and-solve route to connected b(m) tables, kept as a test oracle.

It recovers a table from values of the count-level recursion alone: sample
the connected sequence at as many exponents of the table's parity as there
are candidate moduli, then solve the exact Vandermonde-type moment system.
The values come from ConnectedComputer.value, not from the library's
eigenvalue-table recursion, so the two routes cross-check each other; the
candidate support reuses only the tables' eigenfunction and convolution
helpers.
"""

from __future__ import annotations

from fractions import Fraction

from snhurwitz.characters import CharCache
from snhurwitz.errors import SupportError
from snhurwitz.hurwitz import ConnectedComputer
from snhurwitz.partitions import Partition, partitions_of
from snhurwitz.structure import _prefactor, _resolve_parity, _sample_exponents, _TableComputer

_CANDIDATE_MEMO: dict[tuple[int, tuple[int, ...]], list[int]] = {}


def candidate_moduli(d: int, nu: Partition, cache: CharCache | None = None) -> list[int]:
    """All moduli that can support the connected table: absolute eigenvalues
    of every way of carving d sheets into components with irreducibles on
    each, convolved over the per-point hand-off choices."""
    memo_key = (d, nu.parts)
    hit = _CANDIDATE_MEMO.get(memo_key)
    if hit is not None:
        return list(hit)
    helper = _TableComputer(ConnectedComputer(0, d, (), nu, cache))
    memo: dict[int, set[tuple[int, ...]]] = {}

    def products(delta: int) -> set[tuple[int, ...]]:
        hit = memo.get(delta)
        if hit is not None:
            return hit
        out = {helper.eig(delta, lam) for lam in partitions_of(delta)}
        for d1 in range(1, delta):
            singles = [helper.eig(d1, lam) for lam in partitions_of(d1)]
            for e2 in products(delta - d1):
                for e1 in singles:
                    out.add(helper.convolve(d1, e1, delta - d1, e2))
        memo[delta] = out
        return out

    full = helper.alg.full
    out = sorted({abs(e[full]) for e in products(d) if e[full]}, reverse=True)
    _CANDIDATE_MEMO[memo_key] = out
    return list(out)


def _solve_moment_system(moduli: list[int], q0: int, values: list[Fraction]) -> dict[int, Fraction]:
    """Solve Σ_m b_m·m^{q0+2i} = values[i] exactly via Lagrange coefficients.

    Substituting y_m = m² and c_m = b_m·m^{q0} turns the system into moments
    Σ c_m·y_m^i = v_i, whose inverse rows are the coefficient vectors of the
    Lagrange basis polynomials at the nodes y_m.
    """
    n = len(moduli)
    ys = [m * m for m in moduli]
    if len(set(ys)) != n:
        raise SupportError("repeated moduli make the moment system singular")
    # master polynomial ∏ (t − y_j)
    master = [1]
    for y in ys:
        new = [0] * (len(master) + 1)
        for i, a in enumerate(master):
            new[i] -= a * y
            new[i + 1] += a
        master = new
    out: dict[int, Fraction] = {}
    for m, y in zip(moduli, ys):
        # synthetic division master / (t − y); remainder is 0 by construction
        quot = [0] * n
        carry = master[n]
        for i in range(n - 1, -1, -1):
            quot[i] = carry
            carry = master[i] + carry * y
        denom = 1
        for y2 in ys:
            if y2 != y:
                denom *= y - y2
        c = sum(q * v for q, v in zip(quot, values)) / denom
        out[m] = c / m**q0
    return out


def solve_b_connected(
    h: int,
    d: int,
    mus: tuple[Partition, ...],
    nu: Partition,
    cache: CharCache | None = None,
    parity: int | None = None,
) -> dict[int, Fraction]:
    """Connected b(m) entries over the candidate support, from sampled values."""
    par, _ = _resolve_parity(nu, mus, parity)
    mus = tuple(mus)
    support = candidate_moduli(d, nu, cache)
    computer = ConnectedComputer(h, d, mus, nu, cache)
    prefac = _prefactor(h, d, mus)
    ks = _sample_exponents(par, len(support))
    values = [computer.value(k) / prefac for k in ks]
    entries = _solve_moment_system(support, ks[0], values)
    return {m: b for m, b in entries.items() if b}
