"""CLI wiring: outputs, determinism, and exit codes."""

import json
import math
from pathlib import Path

import pytest

from modalgap.cli import main
from modalgap.core import CLIPPED_ABS, SeedSpec, draw_labeled
from modalgap.erm import fit_unimodal
from modalgap.hypotheses import SignCompleteClass
from modalgap.instances import (instance_to_json, make_boolean,
                                make_separable_from_fixed_points, make_sine,
                                make_subspace, make_three_param)


def read(path: Path):
    return json.loads(path.read_text())


def test_shatter_command(tmp_path):
    out = tmp_path / "run"
    code = main(["shatter", "--signs", "+-+-+-+-", "--n", "8",
                 "--out", str(out), "--table"])
    assert code == 0
    cert = read(out / "certificate.json")
    assert len(cert["entries"]) == 8
    assert all(e["in_window"] for e in cert["entries"])
    assert (out / "certificate.csv").exists()
    assert read(out / "config.json")["command"] == "shatter"


def test_shatter_sign_count_mismatch(tmp_path, capsys):
    code = main(["shatter", "--signs", "+-", "--n", "3",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_gaussavg_command(tmp_path):
    out = tmp_path / "g"
    code = main(["gaussavg", "--cls", "scaling", "--points", "1.0",
                 "--draws", "2000", "--seed", "5", "--out", str(out)])
    assert code == 0
    est = read(out / "estimate.json")
    assert est["draws"] == 2000
    assert abs(est["value"] - est["closed_form"]) <= 4 * est["stderr"]


def test_fit_and_bound_commands(tmp_path):
    inst_file = tmp_path / "sine.json"
    inst_file.write_text(json.dumps(instance_to_json(make_sine(0.7, support=8))))

    out = tmp_path / "fit"
    code = main(["fit-multimodal", "--instance", str(inst_file), "--n", "4",
                 "--m", "16", "--T", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    sol = read(out / "solution.json")
    assert sol["connection"]["theta"] == pytest.approx(0.7)
    assert sol["labeled"]["n"] == 4

    out2 = tmp_path / "bound"
    code = main(["bound", "--instance", str(inst_file), "--n", "8", "--m", "64",
                 "--T", "1", "--seed", "3", "--out", str(out2)])
    assert code == 0
    bound = read(out2 / "bound.json")
    assert bound["dominated"]
    assert bound["total"] == pytest.approx(
        bound["term1"] + bound["term2"] + bound["term3"] + bound["term4"])


def test_separation_command_and_rerun_bytes(tmp_path):
    args = ["separation", "--n", "2", "--trials", "6", "--grid", "5000",
            "--seed", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(args + ["--out", str(out2), "--workers", "3"]) == 0
    for name in ("separation.json", "separation.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_repr_compare_threshold_exit(tmp_path):
    out = tmp_path / "r"
    code = main(["repr-compare", "--n", "1", "--k", "4", "--draws", "500",
                 "--min-ratio", "1.8", "--out", str(out)])
    assert code == 2          # ran fine, ratio 1.0 < 1.8
    data = read(out / "repr_compare.json")
    assert data["ratio"] == pytest.approx(1.0)
    assert not data["pass"]


def test_separability_command(tmp_path):
    out = tmp_path / "s"
    code = main(["separability", "--fixed-points", "0,3/10,7/10,1",
                 "--sample-size", "256", "--seed", "2", "--out", str(out)])
    assert code == 0
    data = read(out / "separability.json")
    assert data["separable"] and data["crossings"] == 2


def test_necessity_command(tmp_path):
    out = tmp_path / "n"
    code = main(["necessity", "--n", "16", "--T", "2", "--trials", "10",
                 "--seed", "4", "--out", str(out)])
    assert code == 0
    data = read(out / "necessity.json")
    assert data["excess_always_half"]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "shatter", "signs": "+-",
                               "out": str(tmp_path / "from_cfg")}))
    code = main(["--config", str(cfg)])
    assert code == 0
    cert = read(tmp_path / "from_cfg" / "certificate.json")
    assert cert["signs"] == [1, -1]
    # explicit flags win over the config file
    code = main(["shatter", "--signs", "++", "--config", str(cfg),
                 "--out", str(tmp_path / "override")])
    assert code == 0
    assert read(tmp_path / "override" / "certificate.json")["signs"] == [1, 1]


SINE_8 = instance_to_json(make_sine(0.7, support=8))
SUBSPACE_3 = instance_to_json(make_subspace([0.6, 0.0, 0.8], [0.1, 0.0, 0.2]))
SEPARABLE = instance_to_json(make_separable_from_fixed_points([0, 0.5, 1]))
THREE_PARAM = instance_to_json(make_three_param())
BOOLEAN_1 = instance_to_json(make_boolean([(0, 1)]))


@pytest.mark.parametrize("instance, argv", [
    ({"family": "nope"}, ["fit-multimodal"]),
    ({}, ["fit-multimodal"]),
    ([], ["fit-multimodal"]),
    (SINE_8, ["fit-unimodal", "--cls", "singleton"]),
    (SINE_8, ["gap", "--cls", "singleton", "--resamples", "2", "--draws", "100"]),
    (None, ["gaussavg", "--cls", "composed-sine"]),
    (None, ["gaussavg", "--cls", "scaling"]),
    (None, ["necessity", "--trials", "0"]),
    (None, ["necessity", "--n", "0"]),
    (SINE_8, ["fit-joint", "--budget", "0"]),
    (None, ["separation", "--trials", "0"]),
    (None, ["separation", "--n", "2", "--trials", "2", "--grid", "0"]),
    (None, ["repr-compare", "--n", "0"]),
    (None, ["gap", "--resamples", "0", "--draws", "50"]),
    (SUBSPACE_3, ["realizability"]),
    (SUBSPACE_3, ["realizability", "--cls", "boolean"]),
    (SUBSPACE_3, ["fit-multimodal"]),
    (SUBSPACE_3, ["bound"]),
    (SEPARABLE, ["bound"]),
    (THREE_PARAM, ["bound"]),
    (BOOLEAN_1, ["gap", "--resamples", "2", "--draws", "100"]),
], ids=["unknown-family", "no-family", "not-an-object", "fit-unimodal-singleton",
        "gap-singleton",
        "gaussavg-no-indices", "gaussavg-no-points", "necessity-no-trials",
        "necessity-no-points", "fit-joint-no-budget", "separation-no-trials",
        "separation-no-grid", "repr-compare-no-points", "gap-no-resamples",
        "realizability-subspace", "realizability-boolean-subspace",
        "fit-multimodal-subspace", "bound-subspace", "bound-separable",
        "bound-three-param", "gap-boolean"])
def test_lab_errors_exit_one(tmp_path, capsys, instance, argv):
    if instance is not None:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        argv = argv + ["--instance", str(path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "[1, 2]"], ids=["no-path", "json-list"])
def test_bad_config_exits_one(tmp_path, capsys, content):
    argv = ["shatter", "--signs", "+-", "--config"]
    if content is not None:
        path = tmp_path / "cfg.json"
        path.write_text(content)
        argv.append(str(path))
    assert main(argv) == 1
    assert "--config" in capsys.readouterr().err


def test_gaussavg_sign_complete_beyond_twenty_points(tmp_path):
    out = tmp_path / "g"
    points = ",".join(str(i / 21) for i in range(21))
    code = main(["gaussavg", "--cls", "sign-complete", "--points", points,
                 "--draws", "500", "--out", str(out)])
    assert code == 0
    est = read(out / "estimate.json")
    assert est["mode"] == "enumeration-exact"
    assert est["closed_form"] == pytest.approx(21 * math.sqrt(2.0 / math.pi))


def test_fit_unimodal_sign_complete(tmp_path):
    # every map of the sample points is a member, so the x-only ERM is an
    # exact enumeration over the groups of equal x
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(SINE_8))
    out = tmp_path / "fit"
    assert main(["fit-unimodal", "--cls", "sign-complete", "--instance", str(path),
                 "--seed", "3", "--out", str(out)]) == 0
    sol = read(out / "solution.json")
    assert math.isfinite(sol["objective"]) and sol["member"]["member"] == "table"
    block = draw_labeled(make_sine(0.7, support=8), 1, 8, SeedSpec(3)).tasks[0]
    again = fit_unimodal(list(zip(block.x[:, 0], block.z)), SignCompleteClass(),
                         CLIPPED_ABS)
    assert again.path == "enumeration-exact"
    assert again.objective == sol["objective"]


def test_gap_sign_complete_defaults(tmp_path):
    # resamples draw with replacement, so the x-only sample repeats points
    out = tmp_path / "gap"
    assert main(["gap", "--cls", "sign-complete", "--out", str(out)]) == 0
    gap = read(out / "gap.json")
    parts = gap["components"]
    assert parts["unimodal_risk_method"] == "enumeration-exact"
    assert parts["unimodal_risk"] == 0.0 and parts["multimodal_risk"] == 0.0
    assert 0.0 < gap["h"] <= math.sqrt(2.0 / math.pi)


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
