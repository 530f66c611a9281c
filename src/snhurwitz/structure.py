"""Structure coefficients of Hurwitz sequences in the repeat count.

For a fixed degree, target genus, fixed profiles μ^(1..s) and one repeated
profile ν, both the disconnected and connected Hurwitz numbers are finite
sums  prefactor · Σ_m b(m)·m^k  over positive integer moduli m, where k is
the number of ν-points.  Both tables group one family's
`hurwitz.ConnectedComputer.fold`, the (eigenvalue of ν, coefficient) pairs
that `hurwitz.connected` sums too: the character sum's terms at t = f_ν(λ), to
which the connected fold adds `ConnectedComputer.peel`, the components
peeled off sheet 1, summed straight by ν's eigenvalue over the
eigenfunction tables `t_table` and `tc_table` below degree d.  Each table
is checked against the count it expands (the character sum, or the count
form of the recursion, `ConnectedComputer.value`) at held-out exponents.

Every statement about a table lives here: the named statements (T1, T2,
T5, T6, PropDH, LemmaDH2), the coefficient-gap conjectures (cH4, cH9,
cH11) and the asymptotic ratio.  Their moduli below the top d!/z_ν are
the pair modulus d!/z_ν·m₁(ν)/d or d!/z_ν times one of conjecture 1's
ratio bounds, read from `verify.ratio_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod

from .characters import CharCache
from .characters import central_character  # noqa: F401  (rebound by bench/workloads.py's tracing)
from .characters import character_ratio  # noqa: F401  (rebound by bench/workloads.py's tracing)
from .errors import GenusError, HypothesisError, SizeMismatchError, SupportError
from .hurwitz import ConnectedComputer, CoverSpec, RepeatedSpec, connected, disconnected
from .partitions import Partition
from .verify import ratio_bound


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


def _check_nu(d: int, nu: Partition) -> None:
    if nu.size != d:
        raise SizeMismatchError(f"nu={nu} does not partition d={d}")
    if nu.colength == 0:
        raise ValueError("nu=(1^d) is degenerate: every eigenvalue is 1")


def _integer_scale(h: int, d: int, mus: tuple[Partition, ...]) -> int:
    """d!^{2h}·∏(d!/z_{μ^(i)}), the factor that makes every b(m) integral."""
    return factorial(d) ** (2 * h) * prod(factorial(d) // mu.centralizer_order() for mu in mus)


def _prefactor(h: int, d: int, mus: tuple[Partition, ...]) -> Fraction:
    return Fraction(2 * _integer_scale(h, d, mus), factorial(d) ** 2)


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
    """Moduli → coefficients of one Hurwitz sequence, for one exponent parity;
    entries run in decreasing m."""

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
        m = Fraction(m)
        if m.denominator != 1:
            return Fraction(0)
        return self.entries.get(m.numerator, Fraction(0))

    def value_at(self, k: int) -> Fraction:
        """prefactor · Σ b(m)·m^k; matches the Hurwitz number for k ≥ 1 of
        this table's parity.  The sum runs on integer numerators over the
        entries' common denominator, so it builds one Fraction."""
        if k % 2 != self.parity:
            raise GenusError(f"table holds for k ≡ {self.parity} (mod 2), got k={k}")
        den = lcm(*(b.denominator for b in self.entries.values()))
        num = sum(b.numerator * (den // b.denominator) * m**k for m, b in self.entries.items())
        return self.prefactor * Fraction(num, den)

    def integrality_violations(self) -> list[int]:
        scale = _integer_scale(self.h, self.d, self.mus)
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


def _sample_exponents(parity: int, count: int) -> list[int]:
    """The first count exponents k ≥ 1 of the given parity."""
    return [2 - parity + 2 * i for i in range(count)]


def _extract(kind: str, h: int, d: int, mus: tuple[Partition, ...], nu: Partition,
             cache: CharCache | None, parity: int | None) -> BTable:
    """Fold the degree-d table of the given kind into b(m), then check it.

    Both kinds read the family's `ConnectedComputer.fold`, (t, coefficient)
    pairs over ν's eigenvalues t (peeled for the connected kind), which
    `hurwitz.connected` reads too.  Each pair with t ≠ 0 adds its
    coefficient to m = |t|, with sign sgn(t)^k for k of the table's parity.
    Each sum is divided by 2·d!^{2h}·∏(d!/z_μ), and the entries run in
    decreasing m.  The table is then checked at held-out exponents of its
    parity against the count it expands: the character sum, or the count
    form of the recursion (`ConnectedComputer.value`, on the same computer,
    so it reuses the character sums the fold built below degree d).
    """
    mus = tuple(mus)
    CoverSpec(h, d, mus)  # rejects a negative genus and profiles not of size d
    _check_nu(d, nu)
    par, vacuous = _resolve_parity(nu, mus, parity)
    computer = ConnectedComputer(h, d, mus, nu, cache)
    folded: dict[int, int] = {}
    for t, coeff in computer.fold(peeled=kind == "connected").items():
        if t:
            folded[abs(t)] = folded.get(abs(t), 0) + (coeff if (t > 0 or par == 0) else -coeff)
    norm = 2 * _integer_scale(h, d, mus)
    entries = {m: Fraction(b, norm) for m, b in sorted(folded.items(), reverse=True) if b}
    table = BTable(kind, h, d, mus, nu, par, entries, vacuous)
    if kind == "connected":
        count, check, failure = 2, computer.value, "connected table fails held-out reconstruction"
    else:
        count, failure = 3, "disconnected table fails reconstruction"

        def check(k: int) -> Fraction:
            return disconnected(CoverSpec(h, d, mus + (nu,) * k), cache)

    for k in _sample_exponents(par, count):
        if table.value_at(k) != check(k):
            raise SupportError(f"{failure} at k={k}")
    return table


def extract_b_disconnected(h: int, d: int, mus: tuple[Partition, ...], nu: Partition,
                           cache: CharCache | None = None, parity: int | None = None) -> BTable:
    """Disconnected coefficient table: the character sum grouped by the
    eigenvalue t_λ of ν,

    b(m) = ½ Σ_{λ: |t_λ|=m} (dim λ)^{2−2h} · sgn(t_λ)^k · ∏_i χ_λ(μ^(i))/dim λ,

    with k's parity fixed.  Checked against the character sum at three
    exponents before returning.
    """
    return _extract("disconnected", h, d, mus, nu, cache, parity)


def extract_b_connected(h: int, d: int, mus: tuple[Partition, ...], nu: Partition,
                        cache: CharCache | None = None, parity: int | None = None) -> BTable:
    """Connected coefficient table by the eigenvalue-table recursion.

    The table is checked at two exponents of its parity against the
    count-level recursion (ConnectedComputer.value) before it is returned.
    """
    return _extract("connected", h, d, mus, nu, cache, parity)


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


def _between(table: BTable, lo: Fraction, hi: Fraction) -> list[int]:
    """The table's moduli on the open interval (lo, hi), increasing."""
    return [m for m in sorted(table.entries) if lo < m < hi]


def _ladder(table: BTable, rungs: list[tuple[Fraction, Fraction]]) -> list[dict]:
    """Clauses for rungs [(m, expected b(m))], top first: the value at each
    rung, and between consecutive rungs a gap clause (b vanishes on the open
    interval).  Ids run 1, 2, 3, … in that order."""
    clauses: list[dict] = []
    hi = None
    for m, expected in rungs:
        if hi is not None:
            bad = _between(table, m, hi)
            if bad:
                clauses.append(_clause(len(clauses) + 1, False, m=bad[0], expected=0,
                                       got=table.coefficient(bad[0]),
                                       note=f"open interval ({m}, {hi})"))
            else:
                clauses.append(_clause(len(clauses) + 1, True, note=f"zero on ({m}, {hi})"))
        got = table.coefficient(m)
        clauses.append(_clause(len(clauses) + 1, got == expected, m=m, expected=expected, got=got))
        hi = m
    return clauses


def _subleading_values(h: int, d: int, mus: tuple[Partition, ...]) -> tuple[Fraction, Fraction]:
    """The closed forms d^{2−2h−s}·∏m₁(μ) and (d−1)^{2−2h−s}·∏(m₁(μ)−1) that
    the statements and conjectures assert at their second and third moduli."""
    e = 2 - 2 * h - len(mus)
    return (Fraction(d) ** e * prod(mu.multiplicity(1) for mu in mus),
            Fraction(d - 1) ** e * prod(mu.multiplicity(1) - 1 for mu in mus))


def _moduli(d: int, nu: Partition) -> tuple[Fraction, Fraction, dict[int, Fraction]]:
    """The moduli that the table statements name for ν ⊢ d: the top
    d!/z_ν, the pair modulus top·m₁(ν)/d, and top·B for each of conjecture
    1's bounds B, keyed by clause and read at ν's own m₁ and m₂."""
    top = Fraction(factorial(d), nu.centralizer_order())
    mult = {1: nu.multiplicity(1), 2: nu.multiplicity(2), 3: 0}
    return top, top * mult[1] / d, {c: top * ratio_bound(d, c, m)[0] for c, m in mult.items()}


def _finish(report: dict, table: BTable) -> dict:
    """Close a table statement's report: on a table no cover realizes every
    clause holds, and its note says so; the params gain the table's parity,
    and the report its first failing clause and its verdict."""
    clauses = report["clauses"]
    if table.vacuous:
        for c in clauses:
            c["pass"] = True
            c["note"] = (c.get("note", "") + " [vacuous: no exponent has even total colength]").strip()
    report["params"]["parity"] = "even" if table.parity == 0 else "odd"
    failing = [c for c in clauses if not c["pass"]]
    report["counterexample"] = failing[0] if failing else None
    report["pass"] = not failing
    return report


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
) -> dict:
    """Machine-check one named statement; returns a JSON-ready report.

    Statements: T1/T5/T6 (connected tables for ν = (r,1^{d−r}), (d−1,1), (d)),
    T2 (connected, general ν, top coefficient and integrality), PropDH and
    LemmaDH2 (their disconnected counterparts).  Each rung below the top
    d!/z_ν is the pair modulus or the top times one of conjecture 1's ratio
    bounds (`_moduli`): T1 reads the pair and B₁(m₁), PropDH B₁(m₁), T5 the
    pair and B₃, T6 B₁(0).
    """
    mus = tuple(mus)
    name = statement_name(statement)
    if name is None:
        raise HypothesisError(f"unknown statement {statement!r}")
    params: dict = {"h": h, "d": d, "mus": [str(m) for m in mus]}

    if name in ("T2", "LemmaDH2"):
        if nu is None:
            raise HypothesisError(f"{name} needs an explicit nu")
        d_min = 5 if name == "T2" else 7
        if d < d_min:
            raise HypothesisError(f"{name} requires d ≥ {d_min}, got d={d}")
        rungs = [(_moduli(d, nu)[0], 1)]
    else:
        if d < 7:
            raise HypothesisError(f"{name} requires d ≥ 7, got d={d}")
        if name in ("T1", "PropDH") and (r is None or not 2 <= r <= d - 2):
            raise HypothesisError(f"{name} requires 2 ≤ r ≤ d−2, got r={r}")
        r = {"T5": d - 1, "T6": d}.get(name, r)
        params["r"] = r
        nu = Partition([r] + [1] * (d - r))
        top, pair, below = _moduli(d, nu)
        val_d, val_d1 = _subleading_values(h, d, mus)
        rungs = {"T1": [(top, 1), (pair, -val_d), (below[1], val_d1)],
                 "PropDH": [(top, 1), (below[1], val_d1)],
                 "T5": [(top, 1), (pair, -val_d), (below[3], val_d1)],
                 "T6": [(top, 1), (below[1], val_d1)]}[name]

    extract = extract_b_disconnected if name in ("PropDH", "LemmaDH2") else extract_b_connected
    table = extract(h, d, mus, nu, cache)
    clauses = _ladder(table, rungs)
    if name in ("T2", "LemmaDH2"):
        bad = table.integrality_violations()
        clauses.append(_clause(2, not bad, m=bad[0] if bad else None,
                               note="integer after scaling by d!^{2h}·∏ d!/z"))
    params["nu"] = str(nu)
    return _finish({"theorem": name, "params": params, "vacuous": table.vacuous,
                    "clauses": clauses}, table)


def check_conjecture_b(
    conj: str,
    d: int,
    nu: Partition,
    h: int = 0,
    mus: tuple[Partition, ...] = (),
    cache: CharCache | None = None,
) -> dict:
    """Check one of the coefficient-gap conjectures on the connected table.

    conj is "cH4" (m_1(ν) ≥ 2), "cH9" (m_1(ν) = 0) or "cH11" (m_1(ν) = 1),
    each with its literal exclusion list; gap clauses assert vanishing
    coefficients on open intervals, value clauses assert closed forms.
    Their moduli come from `_moduli`: the pair modulus in cH4 and cH11, the
    top times B₁(m₁) in cH4 and cH9, times B₂(m₂) in cH11 clause 3 and
    times B₃ in cH11 clause 4.
    """
    conj = conj.strip()
    if conj not in ("cH4", "cH9", "cH11"):
        raise HypothesisError(f"unknown conjecture {conj!r}")
    if d < 10:
        raise HypothesisError(f"{conj} needs d ≥ 10, got {d}")
    if nu.size != d:
        raise HypothesisError(f"nu={nu} does not partition d={d}")
    mus = tuple(mus)
    m1nu, m2nu = nu.multiplicity(1), nu.multiplicity(2)
    notes: list[str] = []
    top, pair, below = _moduli(d, nu)
    val_d, val_d1 = _subleading_values(h, d, mus)

    if conj == "cH4":
        if m1nu < 2:
            raise HypothesisError("cH4 needs m_1(nu) ≥ 2")
    elif conj == "cH9":
        if m1nu != 0:
            raise HypothesisError("cH9 needs m_1(nu) = 0")
        if d % 2 == 0 and nu == Partition([2] * (d // 2)):
            raise HypothesisError("cH9 excludes nu=(2^{d/2})")
    else:
        if m1nu != 1:
            raise HypothesisError("cH11 needs m_1(nu) = 1")
        if d % 3 == 0 and nu == Partition([3] * (d // 3 - 1) + [2, 1]):
            raise HypothesisError("cH11 excludes nu=(3^{d/3-1},2,1)")
        if d % 3 == 1 and nu == Partition([3] * ((d - 1) // 3) + [1]):
            raise HypothesisError("cH11 excludes nu=(3^{(d-1)/3},1)")
        # the stated exclusion (2^{d/2-1},1) has size d-1, so it can never
        # match a partition of d; matched literally and logged
        notes.append("exclusion (2^{d/2-1},1) has size d-1; no nu ⊢ d matches it")

    table = extract_b_connected(h, d, mus, nu, cache)
    clauses = []

    def gap_clause(cid, lo, hi):
        bad = [{"m": str(m), "b": str(table.coefficient(m))} for m in _between(table, lo, hi)]
        clause = {
            "id": cid, "kind": "gap", "interval": [str(lo), str(hi)],
            "pass": not bad, "violations": bad,
        }
        if lo >= hi:
            clause["note"] = "empty interval: lower edge ≥ upper edge, nothing checked"
        clauses.append(clause)

    def value_clause(cid, m, expected):
        got = table.coefficient(m)
        clauses.append({
            "id": cid, "kind": "value", "m": str(m),
            "expected": str(expected), "got": str(got), "pass": got == expected,
        })

    if conj == "cH4":
        gap_clause(1, pair, top)
        gap_clause(2, below[1], pair)
        value_clause(3, pair, -val_d)
        if not (d % 2 == 0 and nu == Partition([2] * (d // 2 - 1) + [1, 1])):
            value_clause(4, below[1], val_d1)
        else:
            notes.append("value clause at the lower edge skipped: nu=(2^{d/2-1},1^2)")
    elif conj == "cH9":
        gap_clause(1, below[1], top)
        value_clause(2, below[1], val_d1)
    else:
        gap_clause(1, pair, top)
        value_clause(2, pair, val_d1)
        if m2nu != 1:
            gap_clause(3, below[2], pair)
        if m2nu == 0:
            gap_clause(4, below[3], pair)

    params = {"d": d, "nu": str(nu), "h": h, "mus": [str(m) for m in mus]}
    return _finish({"conjecture": conj, "params": params, "clauses": clauses, "notes": notes}, table)


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
    mus = tuple(mus)
    spec = RepeatedSpec(CoverSpec(h, d, mus), nu, g=g)
    k = spec.point_count()
    leading = _prefactor(h, d, mus) * Fraction(factorial(d), nu.centralizer_order()) ** k
    return connected(spec, cache) / leading
