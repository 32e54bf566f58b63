"""The scripts under ``scripts/`` run end to end."""

import json
import os
import subprocess
import sys

import pytest

from conftest import TWO_CORNER_FIELDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("spec, table", [
    ("gasket:2", "coincidence_gasket_2.csv"),
    ("two_corner.json", "coincidence_two-corner.csv"),
], ids=["builtin", "spec-file"])
def test_coincidence_runs(tmp_path, spec, table):
    (tmp_path / "two_corner.json").write_text(json.dumps(TWO_CORNER_FIELDS))
    result = run_script("coincidence.py", "--spec", spec, "--nmax", "3",
                        "--out", str(tmp_path / "results"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    rows = (tmp_path / "results" / table).read_text().splitlines()
    assert rows[0] == "pair,level,walk,gap,lower,min_slack_rel,feasible,check"
    # three corner pairs at levels 0..3, each with a feasible certificate
    # whose value agrees with the streamed walk
    assert len(rows) == 1 + 3 * 4
    assert all(row.endswith(",true,ok") for row in rows[1:]), rows
    assert result.stdout.count("Aitken") == 3
