"""The snhurwitz benchmark's workloads, and the pass one fresh interpreter runs.

Run as a script, this module performs one pass of one workload:

    python3 bench/workloads.py --workload coeff-tables --seed 3 [--trace] [--spans FILE]

It imports the library from the checkout's ``src/``, builds the workload's
inputs from the seed (that is the set-up), runs and checks every item, and
prints one JSON line: the set-up end time on the monotonic clock, the pass's
wall and CPU seconds, its peak resident memory, the items attempted and
failed and, with ``--trace``, the per-layer metrics of `layer_metrics`.

A fresh interpreter per pass keeps the library's module-level memos cold,
as they are for a command-line user.  The seed only permutes item order and
draws from fixed pools; ratio-sweep and cache-resume ignore it.  Every item
is checked exactly: tables and reports against committed digests in
``references.json``, oracle specs by equality of two independent routes.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from spans import NullTracer, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "references.json"
SIZES = ("full", "tiny")


def import_library():
    """Import snhurwitz from the checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import snhurwitz

    if Path(snhurwitz.__file__).resolve().parent != SRC / "snhurwitz":
        raise ImportError(f"snhurwitz imported from {snhurwitz.__file__}, not from {SRC}")
    return snhurwitz


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()


def report_payload(report) -> dict:
    """A BoundReport's JSON without its time-based field."""
    payload = report.to_json()
    payload.pop("runtime")
    return payload


def run_cli(argv: list[str]) -> tuple[int, str]:
    from snhurwitz import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_payload(stdout: str, drop: str) -> dict:
    """The CLI's JSON document without a field that varies between runs."""
    payload = json.loads(stdout)
    payload.pop(drop)
    return payload


def _checked(results: list[bool], key: str, compute, expected) -> None:
    """Run one item; it passes when compute() returns the expected value.

    An exception fails the item and the pass goes on, so failed_ratio counts it.
    """
    try:
        ok = compute() == expected
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"check failed: {key}", file=sys.stderr)
    results.append(ok)


# ---------------------------------------------------------------------------
# ratio-sweep: the χ border-strip recursion and its memo, through verify
# ---------------------------------------------------------------------------

RATIO_SIZES = {"full": (18, 15), "tiny": (10, 7)}


def ratio_keys(conj_d: int, thb_d: int) -> tuple[str, str]:
    return f"conjecture1 d={conj_d}", f"theorem-B d={thb_d}"


def prepare_ratio(rng: random.Random, size: str) -> dict:
    conj_d, thb_d = RATIO_SIZES[size]
    return {"conj_d": conj_d, "thb_d": thb_d, "jobs": min(2, os.cpu_count() or 1)}


def run_ratio(inp: dict, tracer, refs: dict) -> list[bool]:
    from snhurwitz import verify
    from snhurwitz.characters import CharCache

    cache = CharCache()
    results: list[bool] = []
    conj_key, thb_key = ratio_keys(inp["conj_d"], inp["thb_d"])

    def conjecture1():
        with tracer.span("verify.conjecture1"):
            cpu, wall = _usage()[0], time.perf_counter()
            report = verify.check_conjecture1(inp["conj_d"], cache, jobs=inp["jobs"])
            cpu, wall = _usage()[0] - cpu, time.perf_counter() - wall
        tracer.counters["parallel.jobs"] = inp["jobs"]
        tracer.counters["parallel.cpu_per_wall"] = cpu / wall
        tracer.counters["verify.checked"] += report.checked
        return digest(report_payload(report))

    def theorem_b():
        with tracer.span("verify.theorem_b"):
            report = verify.check_theorem_B(inp["thb_d"], cache)
        tracer.counters["verify.checked"] += report.checked
        return digest(report_payload(report))

    _checked(results, conj_key, conjecture1, refs.get(conj_key))
    _checked(results, thb_key, theorem_b, refs.get(thb_key))
    tracer.counters["characters.memo_entries"] = len(cache._values)
    return results


# ---------------------------------------------------------------------------
# coeff-tables: structure tables over the hurwitz peeling recursion
# ---------------------------------------------------------------------------

# part (a): ν = (r,1^{d−r}); the auto route picks solve at this commit
PART_A = [(h, f"{r},1^{d - r}") for d in (7, 8, 9) for r in (2, 3) for h in (0, 1)]
# part (b): the auto route picks series
PART_B = [(h, nu) for nu in ("3,2,1^5", "2,2,1^7", "3,2,1^7", "4,3,3,2", "2,2,1^9") for h in (0, 1)]
# s = 1 variants, one μ drawn per stratum; μs of a stratum cost about the same,
# so the pass's work does not depend on the seed
S1_STRATA = [
    ("3,2,1^5", ("2,1^8", "3,1^7")),
    ("2,1^5", ("2,1^5", "2,2,1^3")),
    ("3,1^4", ("3,1^4", "2,2,1^3")),
]
COEFF_SIZES = {
    "full": (PART_A, PART_B, S1_STRATA),
    "tiny": ([(0, "2,1^5")], [(0, "3,2,1^5")], [("3,1^4", ("3,1^4", "2,2,1^3"))]),
}
KINDS = ("connected", "disconnected")


def table_key(kind: str, h: int, nu: str, mus: tuple[str, ...]) -> str:
    return f"{kind} h={h} nu={nu} mus={'/'.join(mus) or '-'}"


def coeff_specs(size: str, draw) -> dict[str, list[tuple[int, str, tuple[str, ...]]]]:
    """Part → (h, ν, μs) specs, with draw(μ choices) picking the s=1 μs."""
    part_a, part_b, strata = COEFF_SIZES[size]
    return {
        "a": [(h, nu, ()) for h, nu in part_a],
        "b": [(h, nu, ()) for h, nu in part_b],
        "s1": [(0, nu, (mu,)) for nu, choices in strata for mu in draw(choices)],
    }


def prepare_coeff(rng: random.Random, size: str) -> dict:
    from snhurwitz.partitions import parse

    parts = {}
    for part, specs in coeff_specs(size, lambda choices: [rng.choice(choices)]).items():
        items = [(kind, h, nu, mus, parse(nu), tuple(parse(m) for m in mus))
                 for h, nu, mus in specs for kind in KINDS]
        rng.shuffle(items)
        parts[part] = items
    return {"parts": parts}


def run_coeff(inp: dict, tracer, refs: dict) -> list[bool]:
    from snhurwitz import characters, structure

    results: list[bool] = []
    extract = {"connected": structure.extract_b_connected,
               "disconnected": structure.extract_b_disconnected}
    for part, items in inp["parts"].items():
        with tracer.span(f"group.part_{part}"):
            for kind, h, nu_s, mus_s, nu, mus in items:
                key = table_key(kind, h, nu_s, mus_s)

                def compute(kind=kind, h=h, nu=nu, mus=mus):
                    with tracer.span(f"structure.extract_{kind}"):
                        table = extract[kind](h, nu.size, mus, nu)
                    tracer.counters["structure.table_entries"] += len(table.entries)
                    return digest(table.to_json())

                _checked(results, key, compute, refs.get(key))
    tracer.counters["characters.memo_entries"] = len(characters._DEFAULT_CACHE._values)
    return results


# ---------------------------------------------------------------------------
# oracle-crosscheck: the numpy brute-force oracles against the recursions
# ---------------------------------------------------------------------------

# d = 6, h = 0 specs (ν, μs, k), one drawn per stratum.  Specs of a stratum
# walk the same number of group elements in the same number of profiles, so
# the brute-force work does not depend on the seed; each has an even total
# colength of at least 2d − 2, so connected covers exist.
D6_STRATA = [
    [("2,2,2", (), 4), ("2,2,2", ("2,1^4",), 3)],
    [("3,3", (), 3), ("2,2,2", ("4,2",), 2)],
    [("3,3", (), 4), ("3,1^3", ("3,3",), 3)],
    [("4,2", ("3,3",), 2), ("4,1,1", ("3,3",), 2)],
    [("6", (), 2), ("6", ("6",), 1)],
    [("3,3", ("2,2,1,1",), 3), ("2,2,2", ("3,2,1",), 3)],
    [("3,3", ("4,2",), 3), ("3,1^3", ("4,2",), 3)],
    [("4,1,1", ("2,2,2",), 3), ("4,1,1", ("2,1^4",), 3)],
]
D5_STRATA = [[("3,2", (), 2), ("3,1,1", ("3,2",), 1)]]
ORACLE_SIZES = {"full": (5, D6_STRATA), "tiny": (4, D5_STRATA)}
MAX_K = 4


def prepare_oracle(rng: random.Random, size: str) -> dict:
    from snhurwitz.hurwitz import CoverSpec, RepeatedSpec
    from snhurwitz.partitions import parse, partitions_of

    max_d, strata = ORACLE_SIZES[size]
    exhaustive = []
    for d in range(2, max_d + 1):
        ps = partitions_of(d)
        for h in (0, 1):
            for mus in [()] + [(mu,) for mu in ps]:
                for nu in ps:
                    if nu.colength == 0:
                        continue
                    for k in range(MAX_K + 1):
                        exhaustive.append(RepeatedSpec(CoverSpec(h, d, mus), nu, k=k))
    rng.shuffle(exhaustive)
    drawn = []
    for stratum in strata:
        nu, mus, k = rng.choice(stratum)
        nu = parse(nu)
        drawn.append(RepeatedSpec(CoverSpec(0, nu.size, tuple(parse(m) for m in mus)), nu, k=k))
    rng.shuffle(drawn)
    return {"exhaustive": exhaustive, "drawn": drawn}


def _spec_key(spec) -> str:
    mus = "/".join(str(m) for m in spec.base.profiles) or "-"
    return f"h={spec.base.h} d={spec.base.d} mus={mus} nu={spec.nu} k={spec.k}"


def run_oracle(inp: dict, tracer, refs: dict) -> list[bool]:
    from snhurwitz import hurwitz

    results: list[bool] = []
    for spec in inp["exhaustive"]:
        def compute(spec=spec):
            cover = spec.cover_spec()
            with tracer.span("hurwitz.connected"):
                conn = hurwitz.connected(spec)
            with tracer.span("hurwitz.bf_connected"):
                bf_conn = hurwitz.brute_force_connected(cover)
            with tracer.span("hurwitz.disconnected"):
                disc = hurwitz.disconnected(cover)
            with tracer.span("hurwitz.bf_disconnected"):
                bf_disc = hurwitz.brute_force_disconnected(cover)
            return conn == bf_conn and disc == bf_disc

        _checked(results, _spec_key(spec), compute, True)
    with tracer.span("group.oracle_drawn"):
        for spec in inp["drawn"]:
            def compute(spec=spec):
                with tracer.span("hurwitz.bf_connected"):
                    bf_conn = hurwitz.brute_force_connected(spec.cover_spec())
                with tracer.span("hurwitz.connected"):
                    conn = hurwitz.connected(spec)
                return bf_conn == conn

            _checked(results, _spec_key(spec), compute, True)
    return results


# ---------------------------------------------------------------------------
# cache-resume: the on-disk χ cache, written then loaded, through the CLI
# ---------------------------------------------------------------------------

CACHE_SIZES = {"full": 15, "tiny": 8}


def cache_keys(d: int) -> tuple[str, str]:
    return f"cache warm d={d}", f"verify theorem-B d={d}"


def prepare_cache(rng: random.Random, size: str) -> dict:
    OUT.mkdir(exist_ok=True)
    return {"d": CACHE_SIZES[size], "tmpdir": tempfile.mkdtemp(prefix="cache-", dir=OUT)}


def run_cache(inp: dict, tracer, refs: dict) -> list[bool]:
    d, cache_dir = str(inp["d"]), inp["tmpdir"]
    warm_key, resume_key = cache_keys(inp["d"])
    results: list[bool] = []

    def step(span: str, argv: list[str], drop: str):
        with tracer.span(span):
            code, stdout = run_cli(["--cache-dir", cache_dir, *argv])
        tracer.counters["cli.stdout_bytes"] += len(stdout.encode())
        return code, digest(cli_payload(stdout, drop))

    _checked(results, warm_key, lambda: step("cli.warm", ["cache", "warm", "--d", d], "path"),
             (0, refs.get(warm_key)))
    _checked(results, resume_key, lambda: step("cli.resume", ["verify", "theorem-B", "--d", d], "runtime"),
             (0, refs.get(resume_key)))
    return results


def cache_reference_argv(d: int) -> tuple[list[str], list[str]]:
    """The in-memory runs whose output the two cache-resume steps must equal."""
    return (["--no-cache-file", "cache", "warm", "--d", str(d)],
            ["--no-cache-file", "verify", "theorem-B", "--d", str(d)])


WORKLOADS = {
    "ratio-sweep": (prepare_ratio, run_ratio),
    "coeff-tables": (prepare_coeff, run_coeff),
    "oracle-crosscheck": (prepare_oracle, run_oracle),
    "cache-resume": (prepare_cache, run_cache),
}


# ---------------------------------------------------------------------------
# tracing: rebinding the calls between layers, and the per-layer metrics
# ---------------------------------------------------------------------------


def install_tracing(tracer: Tracer) -> None:
    """Rebind the names layers use to call each other to traced wrappers."""
    from snhurwitz import characters, cli, hurwitz, structure, verify

    tracer.patch(verify, "character_ratio", "characters.ratio")
    tracer.patch(structure, "character_ratio", "characters.ratio")
    tracer.patch(structure, "central_character", "characters.central")
    tracer.patch(hurwitz, "central_character", "characters.central")
    tracer.patch(structure, "disconnected", "hurwitz.disconnected")
    tracer.patch(hurwitz.ConnectedComputer, "value", "hurwitz.connected_value")

    class TracedCharCache(characters.CharCache):
        def __init__(self, path=None, max_degree: int = 30):
            size = os.path.getsize(path) if path is not None and os.path.exists(path) else 0
            with tracer.span("characters.cache_load"):
                super().__init__(path, max_degree)
            tracer.counters["characters.cache_load_records"] += len(self._values)
            tracer.counters["characters.cache_file_bytes"] += size

        def close(self) -> None:
            with tracer.span("characters.cache_close"):
                super().close()
            tracer.counters["characters.memo_entries"] = len(self._values)

    tracer.replace(cli, "CharCache", TracedCharCache)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric but trace.overhead_s, which needs an untraced pass."""
    rows = summarize(tracer.spans)

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    def total(name):
        return rows[name]["total_s"] if name in rows else 0.0

    def self_s(layer):
        return sum(row["self_s"] for name, row in rows.items() if name.startswith(layer + "."))

    drawn = next((s[0] for s in tracer.spans if s[1] == "group.oracle_drawn"), None)
    first_drawn = min((s for s in tracer.spans if drawn is not None and s[4] == drawn
                       and s[1] == "hurwitz.bf_connected"), key=lambda s: s[2], default=None)
    c = tracer.counters
    return {
        "characters.ratio_calls": calls("characters.ratio"),
        "characters.ratio_s": total("characters.ratio"),
        "characters.central_calls": calls("characters.central"),
        "characters.central_s": total("characters.central"),
        "characters.memo_entries": c["characters.memo_entries"],
        "characters.cache_load_s": total("characters.cache_load"),
        "characters.cache_load_records": c["characters.cache_load_records"],
        "characters.cache_file_bytes": c["characters.cache_file_bytes"],
        "characters.cache_close_s": total("characters.cache_close"),
        "verify.conjecture1_s": total("verify.conjecture1"),
        "verify.theorem_b_s": total("verify.theorem_b"),
        "verify.checked": c["verify.checked"],
        "verify.self_s": self_s("verify"),
        "parallel.jobs": c["parallel.jobs"],
        "parallel.cpu_per_wall": c["parallel.cpu_per_wall"],
        "structure.extract_connected_s": total("structure.extract_connected"),
        "structure.extract_disconnected_s": total("structure.extract_disconnected"),
        "structure.self_s": self_s("structure"),
        "structure.tables": calls("structure.extract_connected") + calls("structure.extract_disconnected"),
        "structure.table_entries": c["structure.table_entries"],
        "structure.part_a_s": total("group.part_a"),
        "structure.part_b_s": total("group.part_b"),
        "hurwitz.connected_value_calls": calls("hurwitz.connected_value"),
        "hurwitz.connected_value_s": total("hurwitz.connected_value"),
        "hurwitz.connected_s": total("hurwitz.connected"),
        "hurwitz.disconnected_calls": calls("hurwitz.disconnected"),
        "hurwitz.disconnected_s": total("hurwitz.disconnected"),
        "hurwitz.bf_connected_calls": calls("hurwitz.bf_connected"),
        "hurwitz.bf_connected_s": total("hurwitz.bf_connected"),
        "hurwitz.bf_disconnected_s": total("hurwitz.bf_disconnected"),
        "hurwitz.bf_first_d6_s": first_drawn[3] - first_drawn[2] if first_drawn else 0.0,
        "cli.warm_s": total("cli.warm"),
        "cli.resume_s": total("cli.resume"),
        "cli.stdout_bytes": c["cli.stdout_bytes"],
    }


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def _usage() -> tuple[float, float]:
    """CPU seconds of this process and its waited-for children, and peak RSS in MiB.

    The kernel keeps only the largest child's peak, so the RSS is this
    process's peak plus that of its largest child.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (own.ru_maxrss + kids.ru_maxrss) / 1024.0


def run_pass(workload: str, seed: int, size: str = "full", trace: bool = False,
             spans_path: str | None = None, setup_only: bool = False) -> dict:
    """Set up and run one pass in this interpreter; the record `main` prints."""
    import_library()
    refs = json.loads(REFERENCES.read_text())
    prepare, run = WORKLOADS[workload]
    inp = prepare(random.Random(seed), size)
    tracer = Tracer(workload) if trace else NullTracer()
    try:
        ready = time.perf_counter()
        if setup_only:
            return {"ready": ready}
        if trace:
            install_tracing(tracer)
        cpu0, _ = _usage()
        start = time.perf_counter()
        try:
            results = run(inp, tracer, refs)
        finally:
            tracer.unpatch()
        wall = time.perf_counter() - start
        cpu1, peak = _usage()
    finally:
        if "tmpdir" in inp:
            shutil.rmtree(inp["tmpdir"], ignore_errors=True)
    record = {"ready": ready, "wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mib": peak,
              "attempted": len(results), "failed": results.count(False)}
    if trace:
        record["layers"] = layer_metrics(tracer)
        if spans_path:
            tracer.write(spans_path, {"seed": seed, "size": size})
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one pass of one benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced pass's spans to this file")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs are ready")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.size, args.trace, args.spans, args.setup_only)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
