import csv
import json
from fractions import Fraction

import pytest

from snhurwitz import characters, verify, young_trees
from snhurwitz.cli import main


@pytest.fixture()
def run(tmp_path, capsys):
    def _run(*argv):
        code = main(["--cache-dir", str(tmp_path / "cache"), *argv])
        out, err = capsys.readouterr()
        return code, out, err

    return _run


def test_chi(run):
    code, out, _ = run("chi", "--lambda", "2,1", "--mu", "2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["chi"] == "0"
    assert doc["params"] == {"lambda": "2,1", "mu": "2,1"}


def test_f_methods_agree(run):
    for lam, r in (("4,2,1", 3), ("4,2,1", 1), ("5,3,1", 5), ("4,3,2,1", 7), ("3,3", 6)):
        values = {}
        for method in ("mn", "trees", "frobenius"):
            code, out, _ = run("f", "--lambda", lam, "--r", str(r), "--method", method)
            assert code == 0
            values[method] = json.loads(out)["f"]
        assert len(set(values.values())) == 1, (lam, r, values)
    for method in ("mn", "trees", "frobenius"):
        for r in (0, 8):
            code, out, err = run("f", "--lambda", "4,3", "--r", str(r), "--method", method)
            assert code == 2 and not out and f"r must be in 1..7, got {r}" in err, (method, r)


def test_tree_walks_past_the_budget_exit_2(run, monkeypatch):
    # C(7, 3) = 35 box subsets against a budget of 34
    monkeypatch.setattr(young_trees, "DEFAULT_BF_BUDGET", 34)
    for argv in (("trees", "--lambda", "4,3", "--r", "3"),
                 ("f", "--lambda", "4,3", "--r", "3", "--method", "trees")):
        code, out, err = run(*argv)
        assert code == 2 and not out and "35 box subsets exceed the budget 34" in err, argv
    code, out, _ = run("f", "--lambda", "4,3", "--r", "3", "--method", "frobenius")
    assert code == 0 and json.loads(out)["f"]


def test_f_value(run):
    code, out, _ = run("f", "--lambda", "7", "--r", "3", "--method", "trees")
    assert json.loads(out)["f"] == "70"  # 7!/(3·4!)


def test_trees_json_shape(run):
    code, out, _ = run("trees", "--lambda", "2,2", "--r", "2")
    doc = json.loads(out)
    assert doc["count"] == 4
    tree = doc["trees"][0]
    assert set(tree) == {"boxes", "vert", "weight"}
    assert isinstance(tree["weight"], str)


def test_hurwitz_connected(run):
    code, out, _ = run("hurwitz", "--kind", "connected", "--d", "3", "--nu", "2,1", "--k", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == "4" and doc["g"] == 0 and doc["k"] == 4
    assert doc["kind"] == "connected" and doc["d"] == 3


def test_hurwitz_disconnected_fraction(run):
    code, out, _ = run("hurwitz", "--d", "2", "--profile", "2", "--profile", "2")
    assert json.loads(out)["value"] == "1/2"


def test_bseries_csv(run):
    code, out, _ = run("--format", "csv", "bseries", "--kind", "disconnected",
                       "--d", "7", "--nu", "2,1^5")
    lines = out.strip().splitlines()
    assert lines[0] == "m,b"
    assert lines[1].startswith("21,1")


def test_verify_exit_codes(run):
    code, out, _ = run("verify", "lemma-rm2", "--d", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    # the known-defective clause makes T5 report a failure: exit 1
    code, out, _ = run("verify", "T5", "--d", "7")
    assert code == 1
    assert json.loads(out)["counterexample"]["id"] == 5


def test_verify_t1(run):
    code, out, _ = run("verify", "T1", "--d", "7", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert [c["pass"] for c in doc["clauses"]] == [True] * 5


def test_usage_errors(run):
    with pytest.raises(SystemExit) as exc:
        run("verify")
    assert exc.value.code == 2
    code, _, err = run("verify", "T1", "--d", "7", "--r", "6")
    assert code == 2 and "2 ≤ r ≤ d−2" in err
    code, _, err = run("chi", "--lambda", "0,1", "--mu", "1")
    assert code == 2 and "0" in err
    code, out, err = run("verify", "lemma-l1", "--d", "1")
    assert code == 2 and not out and "needs d ≥ 2" in err
    with pytest.raises(SystemExit) as exc:
        run("--jobs", "2", "conjecture", "1", "--d", "10")
    assert exc.value.code == 2
    for argv in (("bseries", "--kind", "connected", "--d", "7", "--nu", "2,1^5"),
                 ("verify", "T1", "--d", "7", "--r", "2"),
                 ("conjecture", "cH9", "--d", "10", "--nu", "4,3,3")):
        code, out, err = run(*argv, "--target-genus", "-1")
        assert code == 2 and not out and "target genus must be nonnegative" in err, argv
    for argv, message in ((("bseries", "--kind", "connected", "--d", "7", "--nu", "2,1^5", "--profile", "3"),
                           "profile 3 does not partition d=7"),
                          (("verify", "T1", "--d", "7", "--r", "2", "--profile", "3"),
                           "profile 3 does not partition d=7"),
                          (("conjecture", "cH9", "--d", "10", "--nu", "4,3,3", "--profile", "2"),
                           "profile 2 does not partition d=10"),
                          (("bseries", "--kind", "connected", "--d", "7", "--nu", "2,1^4", "--parity", "odd"),
                           "nu=2,1,1,1,1 does not partition d=7")):
        code, out, err = run(*argv)
        assert code == 2 and not out and message in err, argv
    with pytest.raises(SystemExit) as exc:
        run("conjecture", "cH9", "--d", "11", "--nu", "4,4,3", "--max-degree", "11")
    assert exc.value.code == 2
    for argv in (("--d", "3", "--k", "2"), ("--d", "3", "--g", "5", "--profile", "2,1")):
        code, out, err = run("hurwitz", "--kind", "disconnected", *argv)
        assert code == 2 and not out and "--k and --g need --nu" in err, argv


def test_conjecture_b_needs_nu(run):
    for which in ("cH4", "cH9", "cH11"):
        code, out, err = run("conjecture", which, "--d", "10")
        assert code == 2 and not out, which
        assert f"{which} needs --nu" in err


def test_byte_stable_output(run):
    outs = set()
    for _ in range(2):
        _, out, _ = run("bseries", "--kind", "connected", "--d", "6", "--nu", "3,1,1,1")
        outs.add(out)
    assert len(outs) == 1


def test_cache_subcommands(run, tmp_path):
    code, out, _ = run("cache", "warm", "--d", "4")
    doc = json.loads(out)
    assert code == 0 and doc["path"] is None
    assert doc["by_degree"] == {"1": 1, "2": 4, "3": 9, "4": 25} and doc["entries"] == 39
    code, out, _ = run("verify", "theorem-B", "--d", "10")
    assert code == 0 and not (tmp_path / "cache").exists()
    for action in ("stats", "clear"):
        with pytest.raises(SystemExit) as exc:
            run("cache", action)
        assert exc.value.code == 2


def test_cache_warm_rejects_degree_before_any_work(run, monkeypatch):
    # χ raises here, so a bound checked only after the warm-up fails at once
    # instead of filling every degree below 31
    def no_chi(*args):
        raise AssertionError("cache warm evaluated χ for an out-of-range degree")

    monkeypatch.setattr(characters, "chi", no_chi)
    for d in ("31", "0", "-1"):
        code, out, err = run("cache", "warm", "--d", d)
        assert code == 2 and not out, d
        assert f"cache warm needs 1 ≤ d ≤ 30, got {d}" in err


def test_pretty_format(run):
    code, out, _ = run("--format", "pretty", "chi", "--lambda", "3,1", "--mu", "2,2")
    assert code == 0 and "chi:" in out


def test_conjecture_cli(run):
    # the second family is vacuous: l*(6,4) is even and l*(2,1^8) odd
    for nu, extra in (("4,3,3", []), ("6,4", ["--profile", "2,1^8"])):
        code, out, _ = run("conjecture", "cH9", "--d", "10", "--nu", nu, *extra)
        assert code == 0
        assert json.loads(out)["pass"] is True
    # no degree cap above the hypothesis d ≥ 10
    code, out, _ = run("conjecture", "cH9", "--d", "11", "--nu", "4,4,3")
    assert code == 0 and json.loads(out)["params"]["d"] == 11


def test_conjecture1_csv_pass_column(run, monkeypatch):
    # with clause 1's bound forced to 0 every clause-1 μ has violations
    clause = verify._conjecture1_clause

    def patched(d, mu):
        out = clause(d, mu)
        if isinstance(out, tuple) and out[0] == 1:
            return 1, Fraction(0), out[2]
        return out

    monkeypatch.setattr(verify, "_conjecture1_clause", patched)
    code, out, _ = run("--format", "csv", "conjecture", "1", "--d", "10")
    assert code == 1
    header, *rows = csv.reader(out.splitlines())
    assert header == ["clause", "pass", "detail"]
    assert {row[0] for row in rows} == {"1", "2", "3"}
    assert all(row[1] == ("False" if row[0] == "1" else "True") for row in rows)


def test_verify_statement_aliases(run):
    cases = [("t1", "T1", ["--r", "2"]), ("T5", "T5", []),
             ("prop-dH", "PropDH", ["--r", "2"]), ("propdh", "PropDH", ["--r", "3"]),
             ("lemma-dH2", "LemmaDH2", ["--nu", "3,2,2"]),
             ("LemmaDH2", "LemmaDH2", ["--nu", "4,2,1"])]
    for token, name, extra in cases:
        code, out, _ = run("verify", token, "--d", "7", *extra)
        assert code in (0, 1), token
        doc = json.loads(out)
        assert doc["target"] == token and doc["theorem"] == name
    code, out, err = run("verify", "T3", "--d", "7")
    assert code == 2 and not out
    assert "unknown verification target 'T3'" in err
