"""Exact irreducible characters of the symmetric group.

Evaluation is by the border-strip recursion on beta-sets, memoized on the
pair (λ, remaining suffix of μ) with μ's largest parts stripped first.  A
cache can optionally persist to disk as an append-only text file so that
repeated sweeps resume cheaply.
"""

from __future__ import annotations

import os
import tempfile
import threading
from fractions import Fraction
from math import factorial
from pathlib import Path

from .errors import CacheVersionError, CeilingError, ExactnessError, SizeMismatchError
from .partitions import Partition, dimension

_CACHE_VERSION = 1
_HEADER_PREFIX = "# snhurwitz chi cache "
_FLUSH_EVERY = 4096


def _record(lam: tuple[int, ...], mu: tuple[int, ...], value: int) -> str:
    return f"{sum(lam)}\t{','.join(map(str, lam))}\t{','.join(map(str, mu))}\t{value}\n"


class CharCache:
    """Memo of character values keyed by partition pairs.

    With a path, records are loaded at construction and new values are
    appended (buffered).  Malformed records, a torn last line among them,
    are skipped and counted in `skipped`, and the file is then rewritten
    atomically with the good ones; a header of another format version is
    refused.  Reads are lock-free; writes are serialized.  A cache hit
    always equals recomputation.
    """

    def __init__(self, path: str | os.PathLike | None = None, max_degree: int = 30):
        self.max_degree = max_degree
        self.skipped = 0
        self._values: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        self._path = Path(path) if path is not None else None
        self._pending: list[str] = []
        self._lock = threading.Lock()
        if self._path is not None:
            self._load()

    # -- persistence ---------------------------------------------------

    def _header(self) -> str:
        return f"{_HEADER_PREFIX}v{_CACHE_VERSION} max_degree={self.max_degree}\n"

    def _load(self) -> None:
        if not self._path.exists():
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._path.write_text(self._header())
            return
        text = self._path.read_bytes().decode("utf-8", errors="replace")
        *lines, tail = text.split("\n")
        first = lines[0] if lines else tail
        if first.startswith(_HEADER_PREFIX):
            version = first[len(_HEADER_PREFIX):].split(" ", 1)[0]
            if version != f"v{_CACHE_VERSION}":
                raise CacheVersionError(
                    f"{self._path} has format {version}, this version reads v{_CACHE_VERSION}")
        skipped = 1 if tail else 0
        for line in lines:
            line = line.strip()
            if line and not line.startswith("#") and not self._ingest(line):
                skipped += 1
        self.skipped = skipped
        if skipped:
            self._rewrite()

    def _rewrite(self) -> None:
        """Replace the file with the header and every loaded record, atomically."""
        fd, tmp = tempfile.mkstemp(dir=self._path.parent, prefix=self._path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(self._header())
                fh.writelines(_record(lam, mu, v) for (lam, mu), v in self._values.items())
            os.replace(tmp, self._path)
        except BaseException:
            os.unlink(tmp)
            raise

    def _ingest(self, line: str) -> bool:
        fields = line.split("\t")
        if len(fields) != 4:
            return False
        try:
            d = int(fields[0])
            lam = tuple(int(v) for v in fields[1].split(",")) if fields[1] else ()
            mu = tuple(int(v) for v in fields[2].split(",")) if fields[2] else ()
            value = int(fields[3])
        except ValueError:
            return False
        if sum(lam) != d or sum(mu) != d:
            return False
        self._values[(lam, mu)] = value
        return True

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._path is None or not self._pending:
            self._pending.clear()
            return
        with open(self._path, "a", encoding="utf-8") as fh:
            fh.writelines(self._pending)
        self._pending.clear()

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "CharCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
            self._pending.clear()
            if self._path is not None:
                self._path.write_text(self._header())

    # -- lookup --------------------------------------------------------

    def lookup(self, lam: tuple[int, ...], mu: tuple[int, ...]) -> int | None:
        return self._values.get((lam, mu))

    def store(self, lam: tuple[int, ...], mu: tuple[int, ...], value: int) -> None:
        with self._lock:
            if (lam, mu) in self._values:
                return
            self._values[(lam, mu)] = value
            if self._path is not None:
                self._pending.append(_record(lam, mu, value))
                if len(self._pending) >= _FLUSH_EVERY:
                    self._flush_locked()

    def stats(self) -> dict:
        by_degree: dict[int, int] = {}
        for (lam, _mu) in self._values:
            d = sum(lam)
            by_degree[d] = by_degree.get(d, 0) + 1
        return {
            "entries": len(self._values),
            "by_degree": dict(sorted(by_degree.items())),
            "path": str(self._path) if self._path else None,
            "max_degree": self.max_degree,
        }


_DEFAULT_CACHE = CharCache()


def _beta_strip(lam: tuple[int, ...], mu_rest: tuple[int, ...], r: int, cache: CharCache) -> int:
    """Sum over border strips of length r removed from lam."""
    n = len(lam)
    beta = [lam[i] + n - 1 - i for i in range(n)]
    members = set(beta)
    total = 0
    for b in beta:
        low = b - r
        if low < 0 or low in members:
            continue
        height = sum(1 for x in beta if low < x < b)
        new_beta = sorted((x if x != b else low for x in beta), reverse=True)
        new_lam = tuple(v + i + 1 - n for i, v in enumerate(new_beta) if v + i + 1 - n > 0)
        term = _chi(new_lam, mu_rest, cache)
        total += -term if height % 2 else term
    return total


def _chi(lam: tuple[int, ...], mu: tuple[int, ...], cache: CharCache) -> int:
    if not mu:
        return 1
    hit = cache.lookup(lam, mu)
    if hit is not None:
        return hit
    value = _beta_strip(lam, mu[1:], mu[0], cache)
    cache.store(lam, mu, value)
    return value


def chi(lam: Partition, mu: Partition, cache: CharCache | None = None) -> int:
    """Irreducible character value χ_λ(μ).  Requires |λ| = |μ|."""
    if lam.size != mu.size:
        raise SizeMismatchError(f"|λ|={lam.size} but |μ|={mu.size}")
    cache = cache or _DEFAULT_CACHE
    if lam.size > cache.max_degree:
        raise CeilingError(f"degree {lam.size} exceeds cache ceiling {cache.max_degree}")
    return _chi(lam.parts, mu.parts, cache)


def central_character(mu: Partition, lam: Partition, cache: CharCache | None = None) -> int:
    """(d!/z_μ) · χ_λ(μ)/dim λ, the class-sum eigenvalue on the λ-irreducible.

    Always an integer; a non-exact division signals a character bug and
    raises ExactnessError.
    """
    value = chi(lam, mu, cache)
    d = lam.size
    num = factorial(d) * value
    den = mu.centralizer_order() * dimension(lam)
    if num % den:
        raise ExactnessError(f"central character not integral for mu={mu}, lam={lam}")
    return num // den


def one_cycle_central_character(r: int, lam: Partition, cache: CharCache | None = None) -> int:
    """(d!/(r(d−r)!)) · χ_λ(r,1^{d−r})/dim λ, with the r-cycle treated as marked.

    Identical to central_character of the class (r,1^{d−r}) for r ≥ 2; at
    r = 1 the marked normalization gives d rather than 1.
    """
    d = lam.size
    if not 1 <= r <= d:
        raise ValueError(f"r must be in 1..{d}, got {r}")
    mu = Partition([r] + [1] * (d - r))
    value = chi(lam, mu, cache)
    num = factorial(d) * value
    den = r * factorial(d - r) * dimension(lam)
    if num % den:
        raise ExactnessError(f"marked-cycle character not integral for r={r}, lam={lam}")
    return num // den


def character_ratio(lam: Partition, mu: Partition, cache: CharCache | None = None) -> Fraction:
    """χ_λ(μ)/dim λ as an exact rational (signed)."""
    return Fraction(chi(lam, mu, cache), dimension(lam))
