"""Spec files, subcommand behavior, exit codes, deterministic outputs."""

import filecmp
import json
import os

import numpy as np
import pytest

from fractaldist import measures, metrics, structure
from fractaldist.cli import load_spec, main, parse_builtin, save_spec
from fractaldist.errors import SpecValidationError
from fractaldist.harmonic import HarmonicStructure
from fractaldist.structure import generate_spec, level_address_count

from conftest import TWO_CORNER_FIELDS, UNIT_TRIANGLE_D, shortest_pair_weights


def test_parse_builtin_aliases():
    assert parse_builtin("hexagasket") == ("polygasket", 6)
    assert parse_builtin("nonagasket") == ("polygasket", 9)
    assert parse_builtin("gasket:4") == ("gasket", 4)
    with pytest.raises(SpecValidationError):
        parse_builtin("gasket:two")
    with pytest.raises(SpecValidationError):
        parse_builtin("mystery")


def test_spec_file_roundtrip(tmp_path, sg2_spec):
    path = tmp_path / "sg2.json"
    save_spec(str(path), sg2_spec, D=UNIT_TRIANGLE_D, r=np.full(3, 0.6))
    spec, D, r = load_spec(str(path))
    assert spec == sg2_spec
    assert np.array_equal(D, UNIT_TRIANGLE_D)
    assert np.array_equal(r, np.full(3, 0.6))


def test_missing_r_triggers_equal_weight_solve(tmp_path, sg2_spec):
    path = tmp_path / "sg2_no_r.json"
    save_spec(str(path), sg2_spec, D=UNIT_TRIANGLE_D)
    spec, D, r = load_spec(str(path))
    assert r is None
    hs = HarmonicStructure.build(spec, D, r)
    assert np.allclose(hs.r, 0.6, atol=1e-12)


def test_malformed_glue_entry_named(tmp_path, sg2_spec):
    data = sg2_spec.to_json_dict()
    data["glue"][1] = [0, 1, 2]  # not a quadruple
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SpecValidationError) as err:
        load_spec(str(path))
    assert "glue[1]" in str(err.value)


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(SpecValidationError) as err:
        load_spec(str(path))
    assert "line" in str(err.value)


def run_cli(tmp_path, *args, sub_dir="out"):
    out = str(tmp_path / sub_dir)
    return main(["--out", out, *args]), out


def test_check_builtin_pass(tmp_path, capsys):
    code, out = run_cli(tmp_path, "--spec", "gasket:2", "check")
    assert code == 0
    text = capsys.readouterr().out
    assert "overall: pass" in text
    assert os.path.exists(os.path.join(out, "check_report.txt"))


def test_check_failing_matrix_exits_one(tmp_path, sg2_spec):
    path = tmp_path / "badD.json"
    save_spec(str(path), sg2_spec, D=np.eye(3) * -1.0 + 0.0, r=np.full(3, 0.6))
    # -identity is nonpositive definite but its kernel is empty, so the
    # kernel condition fails and the check must exit with status 1
    code = main(["--spec", str(path), "--out", str(tmp_path / "o"), "check"])
    assert code == 1


def test_usage_error_exit_code(tmp_path):
    assert main(["--spec", "gasket:2", "nosuchcommand"]) == 2
    assert main(["--spec", "mystery", "--out", str(tmp_path / "o"), "check"]) == 2


@pytest.mark.parametrize("command", [
    ["geodesic", "--from=-:7", "--to=-:1", "--nmax", "3"],
    ["geodesic", "--from=9:0", "--to=-:1", "--nmax", "3"],
    ["geodesic", "--from=01:0", "--to=-:1", "--nmax", "1"],
    ["profile", "--from=-:3", "--level", "2"],
    ["certify", "--from=-:0", "--to=3:1", "--level", "2"],
], ids=["label", "letter", "below-nmax", "profile", "certify"])
def test_bad_vertex_ref_is_usage_error(tmp_path, capsys, command):
    assert_usage_error(tmp_path, capsys, command)


TUPLE_COMMANDS = [
    ["profile", "--from=-:0", "--level", "2"],
    ["embed", "--level", "2"],
    ["measures", "--depth", "2"],
    ["graph", "--level", "2"],
    ["geodesic", "--from=-:0", "--to=-:1", "--nmax", "2"],
    ["certify", "--from=-:0", "--to=-:1", "--level", "2"],
]


@pytest.mark.parametrize("command", [
    ["measures", "--depth", "-1"],
    ["certify", "--from=-:0", "--to=-:1", "--level", "2", "--cap", "nan"],
    ["certify", "--from=-:0", "--to=-:1", "--level", "2", "--cap", "inf"],
    ["--feasibility-tol", "nan", "certify", "--from=-:0", "--to=-:1", "--level", "2"],
    ["--feasibility-tol", "-1", "certify", "--from=-:0", "--to=-:1", "--level", "2"],
    ["--convergence-rtol", "nan", "geodesic", "--from=-:0", "--to=-:1", "--nmax", "3"],
    ["--convergence-rtol", "-1", "geodesic", "--from=-:0", "--to=-:1", "--nmax", "3"],
    *[["--tuple", f"{x},0,1", *command] for x in ("nan", "inf") for command in TUPLE_COMMANDS],
    ["--spec", "infinite-D.json", "check"],
    ["--spec", "nan-D.json", "check"],
    ["--spec", "circle.json", "check"],
], ids=["negative-depth", "nan-cap", "infinite-cap", "nan-feasibility-tol",
        "negative-feasibility-tol", "nan-convergence-rtol", "negative-convergence-rtol",
        *[f"{x}-tuple-{command[0]}" for x in ("nan", "inf") for command in TUPLE_COMMANDS],
        "infinite-D", "nan-D", "coincident-boundary"])
def test_bad_option_value_is_usage_error(tmp_path, capsys, monkeypatch, command):
    # the D spec files hold one non-finite entry in D, and the circle's two
    # cells glue boundary point 0 to boundary point 1; a later --spec
    # overrides the default one
    monkeypatch.chdir(tmp_path)
    for name, entry in (("infinite-D.json", "1e999"), ("nan-D.json", "NaN")):
        data = {**generate_spec("gasket", 2).to_json_dict(), "D": UNIT_TRIANGLE_D.tolist()}
        data["D"][0][1] = data["D"][1][0] = "entry"
        (tmp_path / name).write_text(json.dumps(data).replace('"entry"', entry))
    (tmp_path / "circle.json").write_text(json.dumps(
        {"name": "circle", "letters": 2, "boundary": 2, "fixed_letters": [0, 1],
         "glue": [[0, 0, 1, 1], [0, 1, 1, 0]]}))
    assert_usage_error(tmp_path, capsys, command)


def assert_usage_error(tmp_path, capsys, command):
    code, out = run_cli(tmp_path, "--spec", "gasket:2", *command)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", [
    ["profile", "--from=-:0", "--level", "1"],
    ["embed", "--level", "1"],
    ["certify", "--from=-:0", "--to=-:1", "--level", "1"],
    ["measures", "--depth", "1"],
], ids=["profile", "embed", "certify", "measures"])
def test_unspellable_words_leave_no_file(tmp_path, capsys, command):
    # gasket:9 has 45 cells, more than the 36 digits that spell a word, so
    # every table fails while it is formatted
    code, out = run_cli(tmp_path, "--spec", "gasket:9", *command)
    assert code == 2
    assert capsys.readouterr().err == "error: cannot spell words over 45 letters with 36 digits\n"
    assert not os.path.exists(out)


def test_measures_depth_past_the_limit_fails_first(tmp_path, capsys, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("cell arrays allocated before the size check")

    monkeypatch.setattr(measures, "level_address_count",
                        lambda spec, n: level_address_count(spec, n, 3 * 3 ** 3))
    monkeypatch.setattr(measures, "renorm_products", not_reached)
    code, out = run_cli(tmp_path, "--spec", "gasket:2", "measures", "--depth", "4")
    assert code == 1
    assert capsys.readouterr().err == "error: level 4 needs 243 addresses (limit 81)\n"
    assert not os.path.exists(out)


def test_geodesic_identical_canonical_ids(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "--spec", "gasket:2", "geodesic",
                      "--from=0:1", "--to=1:0", "--nmax", "3")
    assert code == 0
    assert "estimate 0 " in capsys.readouterr().out


def test_convergence_rtol_flag_stops_the_levels(tmp_path, capsys):
    # the golden history's relative gap is 2.9e-3 from level 2 to 3 and
    # 7.1e-4 from level 3 to 4, so rtol 1e-3 stops at level 4
    code, out = run_cli(tmp_path, "--spec", "gasket:2", "--convergence-rtol", "1e-3",
                        "geodesic", "--from=-:0", "--to=-:1", "--nmax", "8")
    assert code == 0
    with open(os.path.join(out, "convergence_-_0_-_1.csv")) as fh:
        rows = fh.read().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2", "3", "4"]
    assert "levels 0..4, converged=true" in capsys.readouterr().out


def test_geodesic_keeps_levels_computed_before_the_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(metrics, "level_address_count",
                        lambda spec, n: level_address_count(spec, n, 3 * 3 ** 4))
    # nine leaf cells per block: level n is streamed from level n - 2
    monkeypatch.setattr(metrics, "_STREAM_BLOCK_CELLS", 9)
    code, out = run_cli(tmp_path, "--spec", "gasket:2", "geodesic",
                        "--from=-:0", "--to=-:1", "--nmax", "8")
    assert code == 1
    with open(os.path.join(out, "convergence_-_0_-_1.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "level,value"
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "1", "2", "3", "4", "5", "6"]
    captured = capsys.readouterr()
    assert "levels 0..6, converged=false" in captured.out
    assert ("error: stopped after level 6: level 7 is streamed from level 5: "
            "level 5 needs 729 addresses (limit 243)" in captured.err)


def test_graph_writes_one_row_per_vertex_pair(tmp_path):
    # three vertex pairs of this spec's level-1 graph lie in two cells each;
    # each is written once, with the shorter of the two weights
    path = tmp_path / "two_corner.json"
    path.write_text(json.dumps(TWO_CORNER_FIELDS))
    code, out = run_cli(tmp_path, "--spec", str(path), "graph", "--level", "1")
    assert code == 0
    rows = open(os.path.join(out, "graph_level1.csv")).read().splitlines()
    assert rows[0] == "u,v,weight"
    written = {(int(u), int(v)): float(w) for u, v, w in
               (row.split(",") for row in rows[1:])}
    assert list(written) == sorted(written) and len(written) == 9
    spec, D, r = load_spec(str(path))
    ctx = metrics.MetricContext(HarmonicStructure.build(spec, D, r))
    assert written == shortest_pair_weights(ctx.level(1).lg, metrics.corner_walks(ctx, 1, 1))


def test_certify_feasible_exit_zero(tmp_path):
    code, out = run_cli(tmp_path, "--spec", "gasket:2", "certify",
                        "--from=-:0", "--to=-:1", "--level", "4")
    assert code == 0
    cert = json.loads(open(os.path.join(
        out, "certificate_-_0_-_1_level4.json")).read())
    assert cert["feasible"] is True
    assert cert["checked_depth"] == 4


def test_feasibility_tol_flag_reaches_the_check(tmp_path, capsys):
    # the hexagasket's level-3 certificate has a min slack of -1.6e-14:
    # feasible at the default relative tolerance 1e-9, infeasible at 0
    command = ["certify", "--from=-:0", "--to=-:1", "--level", "3"]
    assert run_cli(tmp_path, "--spec", "hexagasket", *command)[0] == 0
    code, _ = run_cli(tmp_path, "--spec", "hexagasket", "--feasibility-tol", "0", *command)
    assert code == 1
    assert "feasible=false" in capsys.readouterr().out


def test_tuple_flag_parses(tmp_path):
    code, out = run_cli(tmp_path, "--spec", "gasket:2", "--tuple", "0,1,1;1,0,1",
                        "measures", "--depth", "2")
    assert code == 0
    lines = open(os.path.join(out, "measures_depth2.csv")).read().splitlines()
    assert lines[0] == "word,depth,value"
    assert len(lines) == 1 + 1 + 3 + 9


def test_bad_tuple_rejected(tmp_path):
    code, _ = run_cli(tmp_path, "--spec", "gasket:2", "--tuple", "1,2",
                      "measures", "--depth", "1")
    assert code == 2


SMOKE_COMMANDS = [
    ["check"],
    ["graph", "--level", "2"],
    ["geodesic", "--from=-:0", "--to=-:1", "--nmax", "4"],
    ["profile", "--from=-:0", "--level", "3"],
    ["certify", "--from=-:0", "--to=-:2", "--level", "3"],
    ["intrinsic", "--from=-:0", "--to=-:1", "--level", "3", "--budget", "40"],
    ["embed", "--level", "2"],
    ["measures", "--depth", "3"],
]


@pytest.mark.parametrize("command", SMOKE_COMMANDS, ids=lambda c: c[0])
def test_subcommands_deterministic(tmp_path, command):
    code1, out1 = run_cli(tmp_path, "--spec", "gasket:2", *command, sub_dir="a")
    code2, out2 = run_cli(tmp_path, "--spec", "gasket:2", *command, sub_dir="b")
    assert code1 == code2 == 0
    files1 = sorted(os.listdir(out1))
    assert files1 == sorted(os.listdir(out2))
    assert files1, "command produced no files"
    for name in files1:
        assert filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name),
                           shallow=False), name


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_gasket2")

GOLDEN_COMMANDS = [
    ["check"],
    ["certify", "--from=-:0", "--to=-:1", "--level", "3"],
    ["measures", "--depth", "3"],
    ["intrinsic", "--from=-:0", "--to=-:1", "--level", "3", "--budget", "40"],
    ["profile", "--from=-:0", "--level", "3"],
    ["embed", "--level", "3"],
    ["graph", "--level", "3"],
    ["geodesic", "--from=-:0", "--to=-:1", "--nmax", "5"],
]


def test_outputs_match_golden_files(tmp_path):
    # tests/data/golden_gasket2 holds these commands' --out files as written
    # by an earlier release; refactors must reproduce them byte for byte
    for command in GOLDEN_COMMANDS:
        code, out = run_cli(tmp_path, "--spec", "gasket:2", *command)
        assert code == 0
    names = sorted(os.listdir(GOLDEN))
    assert sorted(os.listdir(out)) == names
    for name in names:
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            expected = fh.read()
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == expected, name


def test_block_size_does_not_change_bytes(tmp_path, monkeypatch):
    # tables are formatted in blocks of rows; blocks of 7 put seams inside
    # every table at level 3 and must write the same bytes as one block
    commands = [["profile", "--from=-:1", "--level", "3"],
                ["certify", "--from=-:0", "--to=-:2", "--level", "3"],
                ["measures", "--depth", "3"],
                ["embed", "--level", "3"],
                ["graph", "--level", "3"]]
    for sub_dir in ("default", "blocks7"):
        if sub_dir == "blocks7":
            monkeypatch.setattr(structure, "_CSV_BLOCK_ROWS", 7)
        for command in commands:
            code, out = run_cli(tmp_path, "--spec", "gasket:2", *command, sub_dir=sub_dir)
            assert code == 0
    default, blocks7 = tmp_path / "default", tmp_path / "blocks7"
    names = sorted(os.listdir(default))
    assert names == sorted(os.listdir(blocks7))
    assert sum(name.endswith(".csv") for name in names) == 5
    for name in names:
        assert (blocks7 / name).read_bytes() == (default / name).read_bytes(), name
