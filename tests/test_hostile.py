import os
import subprocess
import sys

import pytest

from hostile import ROWS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _param(row):
    marks = ()
    if row.open_item is not None:
        marks = pytest.mark.xfail(
            strict=True, reason="ROADMAP item %d: a RecursionError traceback" % row.open_item)
    return pytest.param(row, id=row.id, marks=marks)


@pytest.mark.parametrize("row", [_param(row) for row in ROWS])
def test_a_hostile_input_ends_in_an_exit_with_a_message(tmp_path, row):
    # each row in a fresh interpreter, where a RecursionError is a plain
    # traceback
    argv = list(row.argv)
    for name, content in row.files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        argv = [a.replace("{%s}" % name, str(path)) for a in argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "goedellab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert "Traceback" not in proc.stderr
    assert proc.returncode in row.exits
    if proc.returncode:
        assert proc.stderr.strip()
    if row.message is not None:
        assert proc.stderr.strip() == row.message


def test_the_table_names_each_row_once():
    assert len({row.id for row in ROWS}) == len(ROWS)
