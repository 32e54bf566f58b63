"""The scripts under ``scripts/`` run end to end."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, table, header", [
    ("convergence_study.py", "convergence_gasket_2.csv", "pair,level,value,gap"),
    ("certificate_sweep.py", "certificate_sweep_gasket_2.csv",
     "level,source,value,min_slack_rel,feasible"),
])
def test_script_runs(tmp_path, name, table, header):
    result = run_script(name, "--nmax", "2", "--out", str(tmp_path / "results"),
                        cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "results" / table) as fh:
        assert fh.readline().rstrip("\n") == header
