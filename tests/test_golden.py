"""Every CLI report, byte for byte, against recorded outputs.

``golden_cli.json`` holds one record per invocation: the argv given to
``cli.main``, its exit code and its stdout.  BoundReport's wall-clock
``"runtime"`` value is recorded as 0 and normalized the same way here.
"""

import csv
import json
import re
from pathlib import Path

import pytest

from snhurwitz.cli import main

CASES = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"][:2] + c["argv"][3:]))
def test_cli_output_matches_golden(case, capsys):
    code = main(case["argv"])
    out = re.sub(r'"runtime": [^,\n]+', '"runtime": 0', capsys.readouterr().out)
    assert (code, out) == (case["exit"], case["stdout"])


CSV_CASES = [c for c in CASES if c["argv"][:2] == ["--format", "csv"] and c["stdout"]]


@pytest.mark.parametrize("case", CSV_CASES, ids=lambda c: " ".join(c["argv"][3:]))
def test_csv_records_keep_the_header_width(case):
    header, *rows = csv.reader(case["stdout"].splitlines())
    assert rows and all(len(row) == len(header) for row in rows)
