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
    ("certificate_sweep.py", None, "level source value min slack / total feasible"),
])
def test_script_runs(tmp_path, name, table, header):
    result = run_script(name, "--nmax", "2", "--out", str(tmp_path / "results"),
                        cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    if table is None:
        # the sweep prints its table instead of writing one
        assert " ".join(result.stdout.splitlines()[0].split()) == header
    else:
        with open(tmp_path / "results" / table) as fh:
            assert fh.readline().rstrip("\n") == header
