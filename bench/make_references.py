"""Regenerate bench/references.json: digests of every output a seed can draw.

    python3 bench/make_references.py

Run it only when a change is meant to alter outputs; the benchmark's checks
compare each pass against these digests.  Covers both sizes (the full
workloads and the self-test's tiny ones).  Takes about half a minute.
"""

from __future__ import annotations

import json

import workloads as w


def references() -> dict[str, str]:
    w.import_library()
    from snhurwitz import structure, verify
    from snhurwitz.characters import CharCache
    from snhurwitz.partitions import parse

    refs: dict[str, str] = {}
    for size in w.SIZES:
        conj_d, thb_d = w.RATIO_SIZES[size]
        conj_key, thb_key = w.ratio_keys(conj_d, thb_d)
        cache = CharCache()
        refs[conj_key] = w.digest(w.report_payload(verify.check_conjecture1(conj_d, cache)))
        refs[thb_key] = w.digest(w.report_payload(verify.check_theorem_B(thb_d, cache)))

        extract = {"connected": structure.extract_b_connected,
                   "disconnected": structure.extract_b_disconnected}
        for specs in w.coeff_specs(size, lambda choices: choices).values():
            for h, nu_s, mus_s in specs:
                nu, mus = parse(nu_s), tuple(parse(m) for m in mus_s)
                for kind in w.KINDS:
                    table = extract[kind](h, nu.size, mus, nu)
                    refs[w.table_key(kind, h, nu_s, mus_s)] = w.digest(table.to_json())

        d = w.CACHE_SIZES[size]
        for key, argv, drop in zip(w.cache_keys(d), w.cache_reference_argv(d), ("path", "runtime")):
            code, stdout = w.run_cli(argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            refs[key] = w.digest(w.cli_payload(stdout, drop))
    return dict(sorted(refs.items()))


if __name__ == "__main__":
    w.REFERENCES.write_text(json.dumps(references(), indent=1) + "\n")
    print(f"wrote {w.REFERENCES}")
