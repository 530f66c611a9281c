import json

import pytest

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
    values = {}
    for method in ("mn", "trees", "frobenius"):
        code, out, _ = run("f", "--lambda", "4,2,1", "--r", "3", "--method", method)
        assert code == 0
        values[method] = json.loads(out)["f"]
    assert len(set(values.values())) == 1


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


def test_byte_stable_output(run):
    outs = set()
    for _ in range(2):
        _, out, _ = run("bseries", "--kind", "connected", "--d", "6", "--nu", "3,1,1,1")
        outs.add(out)
    assert len(outs) == 1


def test_cache_subcommands(run, tmp_path):
    code, out, _ = run("cache", "warm", "--d", "4")
    assert code == 0 and json.loads(out)["entries"] > 0
    code, out, _ = run("cache", "stats")
    doc = json.loads(out)
    assert doc["entries"] > 0
    code, out, _ = run("cache", "clear")
    assert json.loads(out)["entries"] == 0


def test_pretty_format(run):
    code, out, _ = run("--format", "pretty", "chi", "--lambda", "3,1", "--mu", "2,2")
    assert code == 0 and "chi:" in out


def test_conjecture_cli(run):
    code, out, _ = run("conjecture", "cH9", "--d", "10", "--nu", "4,3,3")
    assert code == 0
    assert json.loads(out)["pass"] is True


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
