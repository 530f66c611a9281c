"""Structure coefficients of Hurwitz sequences in the repeat count.

For a fixed degree, target genus, fixed profiles μ^(1..s) and one repeated
profile ν, both the disconnected and connected Hurwitz numbers are finite
sums  prefactor · Σ_m b(m)·m^k  over positive integer moduli m, where k is
the number of ν-points.  The disconnected coefficients come straight from
the central-character spectrum; the connected ones by pushing the
component-peeling recursion through tables of eigenvalue functions, checked
against the count-level recursion at held-out exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .characters import CharCache, central_character, character_ratio
from .errors import GenusError, HypothesisError, SizeMismatchError, SupportError
from .hurwitz import ConnectedComputer, CoverSpec, disconnected, mu_splits
from .partitions import Partition, dimension, partitions_of


# ---------------------------------------------------------------------------
# spectrum of signed eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Signed central-character eigenvalues t_λ of one class ν on all λ ⊢ d."""

    d: int
    nu: Partition
    entries: tuple[tuple[Partition, int], ...]

    @property
    def m_max(self) -> int:
        return max(abs(t) for _, t in self.entries)

    def moduli(self) -> list[int]:
        """Distinct nonzero |t| in decreasing order."""
        return sorted({abs(t) for _, t in self.entries if t}, reverse=True)

    def by_modulus(self) -> dict[int, list[tuple[Partition, int]]]:
        out: dict[int, list[tuple[Partition, int]]] = {}
        for lam, t in self.entries:
            out.setdefault(abs(t), []).append((lam, t))
        return out

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "nu": str(self.nu),
            "m_max": str(self.m_max),
            "groups": {
                str(m): [[str(lam), str(t)] for lam, t in group]
                for m, group in sorted(self.by_modulus().items(), reverse=True)
            },
        }


def spectrum(d: int, nu: Partition, cache: CharCache | None = None) -> Spectrum:
    if nu.size != d:
        raise SizeMismatchError(f"nu={nu} does not partition d={d}")
    if nu.colength == 0:
        raise ValueError("nu=(1^d) is degenerate: every eigenvalue is 1")
    entries = tuple((lam, central_character(nu, lam, cache)) for lam in partitions_of(d))
    return Spectrum(d, nu, entries)


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


def _prefactor(h: int, d: int, mus: tuple[Partition, ...]) -> Fraction:
    out = Fraction(2 * factorial(d) ** (2 * h), factorial(d) ** 2)
    for mu in mus:
        out *= Fraction(factorial(d), mu.centralizer_order())
    return out


def _resolve_parity(nu: Partition, mus: tuple[Partition, ...], parity: int | None) -> tuple[int, bool]:
    """The exponent parity a table applies to, plus a vacuity flag.

    Total colength k·l*(ν) + Σ l*(μ) must be even for any cover to exist.
    With l*(ν) odd that forces k's parity; with l*(ν) even and Σ l*(μ) odd
    no k works at all and every value is zero (vacuous).
    """
    s_par = sum(mu.colength for mu in mus) % 2
    if nu.colength % 2:
        forced = s_par
        if parity is not None and parity % 2 != forced:
            raise GenusError(f"parity {parity} is inconsistent: k must be ≡ {forced} (mod 2)")
        return forced, False
    vacuous = s_par == 1
    return (parity % 2 if parity is not None else 0), vacuous


@dataclass
class BTable:
    """Moduli → coefficients of one Hurwitz sequence, for one exponent parity."""

    kind: str
    h: int
    d: int
    mus: tuple[Partition, ...]
    nu: Partition
    parity: int
    entries: dict[int, Fraction]
    vacuous: bool = False

    @property
    def prefactor(self) -> Fraction:
        return _prefactor(self.h, self.d, self.mus)

    def coefficient(self, m) -> Fraction:
        """b(m); zero off the support, and for non-integer m."""
        if isinstance(m, Fraction):
            if m.denominator != 1:
                return Fraction(0)
            m = m.numerator
        return self.entries.get(int(m), Fraction(0))

    def value_at(self, k: int) -> Fraction:
        """prefactor · Σ b(m)·m^k; matches the Hurwitz number for k ≥ 1 of
        this table's parity."""
        if k % 2 != self.parity:
            raise GenusError(f"table holds for k ≡ {self.parity} (mod 2), got k={k}")
        return self.prefactor * sum((b * m**k for m, b in self.entries.items()), Fraction(0))

    def integer_scale(self) -> Fraction:
        """d!^{2h}·∏(d!/z_{μ^(i)}), the factor that makes every b(m) integral."""
        out = Fraction(factorial(self.d) ** (2 * self.h))
        for mu in self.mus:
            out *= Fraction(factorial(self.d), mu.centralizer_order())
        return out

    def integrality_violations(self) -> list[int]:
        scale = self.integer_scale()
        return [m for m, b in self.entries.items() if (scale * b).denominator != 1]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "h": self.h,
            "d": self.d,
            "mus": [str(m) for m in self.mus],
            "nu": str(self.nu),
            "parity": "even" if self.parity == 0 else "odd",
            "vacuous": self.vacuous,
            "prefactor": str(self.prefactor),
            "entries": {str(m): str(b) for m, b in sorted(self.entries.items(), reverse=True)},
        }


def extract_b_disconnected(
    h: int,
    d: int,
    mus: tuple[Partition, ...],
    nu: Partition,
    cache: CharCache | None = None,
    parity: int | None = None,
) -> BTable:
    """Fold the eigenvalue spectrum into the disconnected coefficient table.

    b(m) = ½ Σ_{λ: |t_λ|=m} (dim λ)^{2−2h} · sgn(t_λ)^k · ∏_i χ_λ(μ^(i))/dim λ,
    with k's parity fixed.  The reconstruction identity against the character
    sum is checked at three exponents before returning.
    """
    par, vacuous = _resolve_parity(nu, mus, parity)
    spec = spectrum(d, nu, cache)
    entries: dict[int, Fraction] = {}
    for lam, t in spec.entries:
        if t == 0:
            continue
        term = Fraction(dimension(lam)) ** (2 - 2 * h)
        if t < 0 and par == 1:
            term = -term
        for mu in mus:
            term *= character_ratio(lam, mu, cache)
        m = abs(t)
        entries[m] = entries.get(m, Fraction(0)) + term / 2
    entries = {m: b for m, b in entries.items() if b}
    table = BTable("disconnected", h, d, tuple(mus), nu, par, entries, vacuous)
    for k in _sample_exponents(par, 3):
        direct = disconnected(CoverSpec(h, d, tuple(mus) + (nu,) * k), cache)
        if table.value_at(k) != direct:
            raise SupportError(f"disconnected table fails reconstruction at k={k}")
    return table


def _sample_exponents(parity: int, count: int, start_at_least: int = 1) -> list[int]:
    k0 = start_at_least + ((parity - start_at_least) % 2)
    return [k0 + 2 * i for i in range(count)]


# -- eigenvalue-function tables ---------------------------------------------


class _TableComputer:
    """Component-peeling recursion over tables of eigenvalue functions.

    A piece of degree δ contributes, per ν-point, a factor depending only on
    the sub-multiset of ν's non-unit parts the point hands that piece; the
    vector of those factors over all hand-off types is the piece's
    eigenfunction.  Tables map eigenfunctions to exact coefficients, so the
    whole k-dependence of a Hurwitz sequence is carried symbolically and the
    connected table falls out of one recursion instead of many evaluations.

    Coefficients are integers: a degree-δ table holds δ!² times the
    character-sum weights (see ConnectedComputer), which puts an extra
    binomial comb(δ, δ₁) on each convolution term and leaves one division
    for signed_coefficients.
    """

    def __init__(self, computer: ConnectedComputer):
        self.computer = computer
        self.alg = computer.algebra
        self._eigs: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
        self._plans: dict[tuple[int, int], list[list[tuple[int, int]]]] = {}
        self._t: dict = {}
        self._tc: dict = {}

    def eig(self, delta: int, lam: Partition) -> tuple[int, ...]:
        key = (delta, lam.parts)
        hit = self._eigs.get(key)
        if hit is None:
            alg, f = self.alg, self.computer.f
            hit = tuple(
                f(alg.point_profile(t, delta), lam) if alg.tsum[t] <= delta else 0
                for t in range(len(alg.types))
            )
            self._eigs[key] = hit
        return hit

    def convolve(self, d1: int, e1: tuple[int, ...], d2: int, e2: tuple[int, ...]) -> tuple[int, ...]:
        pairs_by_type = self._plans.get((d1, d2))
        if pairs_by_type is None:
            # hand-off choices each side can absorb; empty where tsum > d1 + d2
            tsum = self.alg.tsum
            pairs_by_type = [
                [(b, rest) for b, rest in opts if tsum[b] <= d1 and tsum[rest] <= d2]
                for opts in self.alg.choices
            ]
            self._plans[(d1, d2)] = pairs_by_type
        out = []
        for pairs in pairs_by_type:
            acc = 0
            for b, rest in pairs:
                acc += e1[b] * e2[rest]
            out.append(acc)
        return tuple(out)

    def t_table(self, delta: int, omegas: tuple) -> dict[tuple[int, ...], int]:
        key = (delta, omegas)
        hit = self._t.get(key)
        if hit is not None:
            return hit
        f = self.computer.f
        table: dict[tuple[int, ...], int] = {}
        for lam, coeff in self.computer.weights(delta):
            for om in omegas:
                coeff *= f(om, lam)
            if not coeff:
                continue
            e = self.eig(delta, lam)
            table[e] = table.get(e, 0) + coeff
        table = {e: c for e, c in table.items() if c}
        self._t[key] = table
        return table

    def tc_table(self, delta: int, omegas: tuple) -> dict[tuple[int, ...], int]:
        key = (delta, omegas)
        hit = self._tc.get(key)
        if hit is not None:
            return hit
        table = dict(self.t_table(delta, omegas))
        for d1 in range(1, delta):
            d2 = delta - d1
            ways = comb(delta - 1, d1 - 1) * comb(delta, d1)
            for om1, om2 in mu_splits(d1, omegas):
                first = self.tc_table(d1, om1)
                rest = self.t_table(d2, om2)
                for e1, c1 in first.items():
                    for e2, c2 in rest.items():
                        e = self.convolve(d1, e1, d2, e2)
                        table[e] = table.get(e, 0) - ways * c1 * c2
        table = {e: c for e, c in table.items() if c}
        self._tc[key] = table
        return table

    def signed_coefficients(self) -> dict[int, Fraction]:
        """Signed eigenvalue → coefficient of t^k in the connected sequence,
        normalized so the table matches the shared prefactor convention."""
        c = self.computer
        full = self.alg.full
        sums: dict[int, int] = {}
        for e, coeff in self.tc_table(c.d, tuple(m.parts for m in c.mus)).items():
            t = e[full]
            if t:
                sums[t] = sums.get(t, 0) + coeff
        norm = factorial(c.d) ** 2 * _prefactor(c.h, c.d, c.mus)
        return {t: s / norm for t, s in sums.items() if s}


def extract_b_connected(
    h: int,
    d: int,
    mus: tuple[Partition, ...],
    nu: Partition,
    cache: CharCache | None = None,
    parity: int | None = None,
) -> BTable:
    """Connected coefficient table by the eigenvalue-table recursion.

    The table is checked at two exponents of its parity against the
    count-level recursion (ConnectedComputer.value) before it is returned.
    """
    par, vacuous = _resolve_parity(nu, mus, parity)
    mus = tuple(mus)
    computer = ConnectedComputer(h, d, mus, nu, cache)
    entries: dict[int, Fraction] = {}
    for t, c in _TableComputer(computer).signed_coefficients().items():
        m = abs(t)
        entries[m] = entries.get(m, Fraction(0)) + (c if (t > 0 or par == 0) else -c)
    entries = {m: b for m, b in entries.items() if b}
    table = BTable("connected", h, d, mus, nu, par, entries, vacuous)
    for k in _sample_exponents(par, 2):
        if table.value_at(k) != computer.value(k):
            raise SupportError(f"connected table fails held-out reconstruction at k={k}")
    return table


# ---------------------------------------------------------------------------
# theorem verification and the asymptotic ratio
# ---------------------------------------------------------------------------


def _clause(cid: int, ok: bool, m=None, expected=None, got=None, note: str | None = None) -> dict:
    out = {"id": cid, "pass": bool(ok)}
    if m is not None:
        out["m"] = str(m)
    if expected is not None:
        out["expected"] = str(expected)
    if got is not None:
        out["got"] = str(got)
    if note:
        out["note"] = note
    return out


def _gap_clause(cid: int, table: BTable, lo: Fraction, hi: Fraction) -> dict:
    bad = [m for m in sorted(table.entries) if lo < m < hi]
    if bad:
        m = bad[0]
        return _clause(cid, False, m=m, expected=0, got=table.coefficient(m),
                       note=f"open interval ({lo}, {hi})")
    return _clause(cid, True, note=f"zero on ({lo}, {hi})")


def _value_clause(cid: int, table: BTable, m: Fraction, expected: Fraction) -> dict:
    got = table.coefficient(m)
    return _clause(cid, got == expected, m=m, expected=expected, got=got)


def _power(base: int, exp: int) -> Fraction:
    return Fraction(base) ** exp


#: canonical statement names, keyed by their spelling without '-', '_' or case
STATEMENTS = {"t1": "T1", "t2": "T2", "t5": "T5", "t6": "T6",
              "propdh": "PropDH", "lemmadh2": "LemmaDH2"}


def statement_name(token: str) -> str | None:
    """The canonical name of a statement token such as 'prop-dH', or None."""
    return STATEMENTS.get(token.strip().replace("-", "").replace("_", "").lower())


def verify_theorem(
    statement: str,
    *,
    h: int,
    d: int,
    mus: tuple[Partition, ...] = (),
    r: int | None = None,
    nu: Partition | None = None,
    cache: CharCache | None = None,
    parity: int | None = None,
) -> dict:
    """Machine-check one named statement; returns a JSON-ready report.

    Statements: T1/T5/T6 (connected tables for ν = (r,1^{d−r}), (d−1,1), (d)),
    T2 (connected, general ν, top coefficient and integrality), PropDH and
    LemmaDH2 (their disconnected counterparts).
    """
    mus = tuple(mus)
    s = len(mus)
    name = statement_name(statement)
    if name is None:
        raise HypothesisError(f"unknown statement {statement!r}")

    exp_d = _power(d, 2 - 2 * h - s)
    exp_d1 = _power(d - 1, 2 - 2 * h - s)
    prod_m1 = 1
    prod_m1_minus = 1
    for mu in mus:
        prod_m1 *= mu.multiplicity(1)
        prod_m1_minus *= mu.multiplicity(1) - 1

    clauses: list[dict] = []
    params: dict = {"h": h, "d": d, "mus": [str(m) for m in mus]}

    if name in ("T1", "PropDH"):
        if d < 7:
            raise HypothesisError(f"{name} requires d ≥ 7, got d={d}")
        if r is None or not 2 <= r <= d - 2:
            raise HypothesisError(f"{name} requires 2 ≤ r ≤ d−2, got r={r}")
        params["r"] = r
        nu = Partition([r] + [1] * (d - r))
        m_top = Fraction(factorial(d), r * factorial(d - r))
        m_mid = Fraction(factorial(d - 1), r * factorial(d - r - 1))
        m_low = Fraction((d - r - 1) * factorial(d), r * (d - 1) * factorial(d - r))
        if name == "T1":
            table = extract_b_connected(h, d, mus, nu, cache, parity)
            clauses.append(_value_clause(1, table, m_top, Fraction(1)))
            clauses.append(_gap_clause(2, table, m_mid, m_top))
            clauses.append(_value_clause(3, table, m_mid, -exp_d * prod_m1))
            clauses.append(_gap_clause(4, table, m_low, m_mid))
            clauses.append(_value_clause(5, table, m_low, exp_d1 * prod_m1_minus))
        else:
            table = extract_b_disconnected(h, d, mus, nu, cache, parity)
            clauses.append(_value_clause(1, table, m_top, Fraction(1)))
            clauses.append(_gap_clause(2, table, m_low, m_top))
            clauses.append(_value_clause(3, table, m_low, exp_d1 * prod_m1_minus))
    elif name == "T5":
        if d < 7:
            raise HypothesisError(f"T5 requires d ≥ 7, got d={d}")
        nu = Partition([d - 1, 1])
        params["r"] = d - 1
        table = extract_b_connected(h, d, mus, nu, cache, parity)
        m_top = Fraction(d * factorial(d - 2))
        m_mid = Fraction(factorial(d - 2))
        m_low = Fraction(2 * (d - 2) * factorial(d - 4))
        clauses.append(_value_clause(1, table, m_top, Fraction(1)))
        clauses.append(_gap_clause(2, table, m_mid, m_top))
        clauses.append(_value_clause(3, table, m_mid, -exp_d * prod_m1))
        clauses.append(_gap_clause(4, table, m_low, m_mid))
        clauses.append(_value_clause(5, table, m_low, exp_d1 * prod_m1_minus))
    elif name == "T6":
        if d < 7:
            raise HypothesisError(f"T6 requires d ≥ 7, got d={d}")
        nu = Partition([d])
        params["r"] = d
        table = extract_b_connected(h, d, mus, nu, cache, parity)
        m_top = Fraction(factorial(d - 1))
        m_mid = Fraction(factorial(d - 2))
        clauses.append(_value_clause(1, table, m_top, Fraction(1)))
        clauses.append(_gap_clause(2, table, m_mid, m_top))
        clauses.append(_value_clause(3, table, m_mid, exp_d1 * prod_m1_minus))
    elif name == "T2":
        if nu is None:
            raise HypothesisError("T2 needs an explicit nu")
        if d < 5:
            raise HypothesisError(f"T2 requires d ≥ 5, got d={d}")
        table = extract_b_connected(h, d, mus, nu, cache, parity)
        m_top = Fraction(factorial(d), nu.centralizer_order())
        clauses.append(_value_clause(1, table, m_top, Fraction(1)))
        bad = table.integrality_violations()
        clauses.append(_clause(2, not bad, m=bad[0] if bad else None,
                               note="integer after scaling by d!^{2h}·∏ d!/z"))
    else:  # LemmaDH2
        if nu is None:
            raise HypothesisError("LemmaDH2 needs an explicit nu")
        if d < 7:
            raise HypothesisError(f"LemmaDH2 requires d ≥ 7, got d={d}")
        table = extract_b_disconnected(h, d, mus, nu, cache, parity)
        m_top = Fraction(factorial(d), nu.centralizer_order())
        clauses.append(_value_clause(1, table, m_top, Fraction(1)))
        bad = table.integrality_violations()
        clauses.append(_clause(2, not bad, m=bad[0] if bad else None,
                               note="integer after scaling by d!^{2h}·∏ d!/z"))

    params["nu"] = str(nu)
    params["parity"] = "even" if table.parity == 0 else "odd"
    if table.vacuous:
        for c in clauses:
            c["pass"] = True
            c["note"] = (c.get("note", "") + " [vacuous: no exponent has even total colength]").strip()
    failing = [c for c in clauses if not c["pass"]]
    return {
        "theorem": name,
        "params": params,
        "vacuous": table.vacuous,
        "clauses": clauses,
        "counterexample": failing[0] if failing else None,
        "pass": not failing,
    }


def asymptotic_ratio(
    h: int,
    d: int,
    mus: tuple[Partition, ...],
    nu: Partition,
    g: int,
    cache: CharCache | None = None,
) -> Fraction:
    """Connected Hurwitz number divided by its closed-form leading term
    2·d!^{s+2h−2}/∏z_{μ^(i)} · (d!/z_ν)^k at source genus g."""
    from .hurwitz import RepeatedSpec, connected

    mus = tuple(mus)
    spec = RepeatedSpec(CoverSpec(h, d, mus), nu, g=g)
    k = spec.point_count()
    leading = 2 * Fraction(factorial(d)) ** (len(mus) + 2 * h - 2)
    for mu in mus:
        leading /= mu.centralizer_order()
    leading *= Fraction(factorial(d), nu.centralizer_order()) ** k
    if leading == 0:
        raise ArithmeticError("leading term vanished (bug)")
    return connected(spec, cache) / leading
