"""Byte-exact CLI regression: every case's exit code, stdout and written files.

`golden_cli.json` holds the recorded outputs.  Each case's argv may name
files in the per-test directory as "{tmp}/NAME"; the case's "inputs" are
written there before the run and its "files" are read back after it.
"""

import json
from pathlib import Path

import pytest

from magrad.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


def run_case(case: dict, tmp: Path, capsys) -> dict:
    for name, text in case.get("inputs", {}).items():
        (tmp / name).write_text(text)
    argv = [a.replace("{tmp}", str(tmp)) for a in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    files = {name: (tmp / name).read_text() for name in case.get("files", {})}
    return {"exit": code, "stdout": out, "files": files}


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["id"])
def test_cli_output_is_byte_identical(case, tmp_path, capsys):
    got = run_case(case, tmp_path, capsys)
    assert got["exit"] == case["exit"]
    assert got["stdout"] == case["stdout"]
    assert got["files"] == case.get("files", {})
