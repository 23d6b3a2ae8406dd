"""Golden CLI corpus: exact stdout bytes and exit codes of every subcommand.

`golden_cli.json` holds the input files and, for each case, the argv, the
exit code and the stdout.  In an argv, `{dir}` stands for a fresh
directory that holds the input files and serves as the cache directory.
Running this file as a script runs the corpus with the current code and
prints a new data file:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "golden_cli.json")
SRC = os.path.join(os.path.dirname(HERE), "src")


def load_data() -> dict:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def run_case(argv: list[str]) -> tuple[int, str]:
    from goedellab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue()


def run_corpus(data: dict) -> list[dict]:
    """Every case run in this process, in order, in one fresh directory."""
    with tempfile.TemporaryDirectory() as d:
        for name, text in data["files"].items():
            with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        results = []
        for case in data["cases"]:
            code, out = run_case([a.replace("{dir}", d) for a in case["argv"]])
            results.append({"argv": case["argv"], "exit": code, "stdout": out})
    return results


@pytest.fixture(autouse=True)
def _no_cache_env(monkeypatch):
    monkeypatch.delenv("GOEDEL_CACHE_DIR", raising=False)


def test_corpus_covers_every_exit_code():
    assert {case["exit"] for case in load_data()["cases"]} == {0, 1, 2, 3}


@pytest.mark.parametrize("case", load_data()["cases"], ids=lambda c: " ".join(c["argv"]))
def test_case_matches_golden_output(case, tmp_path):
    for name, text in load_data()["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [a.replace("{dir}", str(tmp_path)) for a in case["argv"]]
    assert run_case(argv) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("seed", ["0", "1"])
def test_corpus_is_identical_across_hash_seeds(seed):
    env = {k: v for k, v in os.environ.items() if k != "GOEDEL_CACHE_DIR"}
    env.update(PYTHONHASHSEED=seed, PYTHONIOENCODING="utf-8", PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)], env=env, capture_output=True, check=True
    )
    got = json.loads(proc.stdout.decode("utf-8"))["cases"]
    assert got == load_data()["cases"]


if __name__ == "__main__":
    data = load_data()
    data["cases"] = run_corpus(data)
    sys.stdout.write(json.dumps(data, indent=1, ensure_ascii=False) + "\n")
