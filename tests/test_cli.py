"""CLI wiring: outputs, determinism, and exit codes."""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from modalgap.cli import _CLASSES, build_parser, main
from modalgap.core import CLIPPED_ABS, SeedSpec, draw_labeled
from modalgap.erm import fit_unimodal
from modalgap.hypotheses import SignCompleteClass
from modalgap.instances import (instance_to_json, make_boolean,
                                make_separable_from_fixed_points, make_sine,
                                make_sine_shattered, make_subspace,
                                make_three_param)


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


@pytest.mark.parametrize("flag", ["--signs", "--sig"])
def test_signs_starting_with_minus_need_no_equals(tmp_path, flag):
    spaced, equals = tmp_path / "spaced", tmp_path / "equals"
    assert main(["shatter", flag, "-+-", "--out", str(spaced)]) == 0
    assert main(["shatter", "--signs=-+-", "--out", str(equals)]) == 0
    assert ((spaced / "certificate.json").read_bytes()
            == (equals / "certificate.json").read_bytes())
    assert read(spaced / "certificate.json")["signs"] == [-1, 1, -1]


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
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
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


def test_separability_one_class_sample_has_a_finite_margin(tmp_path):
    # f lies above the diagonal on (0, 1), so every row is labeled -1
    out = tmp_path / "s"
    assert main(["separability", "--fixed-points", "0,1", "--out", str(out)]) == 0
    text = (out / "separability.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    data = json.loads(text)
    assert data["separable"] and data["crossings"] == 0
    assert data["separator"][:2] == [1.0, -1.0]
    assert 0 < data["canonical_margin"] < data["margin"] < 1


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


SEPARATION_ARGV = ["separation", "--n", "2", "--trials", "3", "--grid", "1000"]


@pytest.mark.parametrize("argv, results, config", [
    (["gap", "--n", "4", "--support", "16", "--draws", "200", "--resamples", "3"],
     ["gap.json"], ["--config", "{cfg}"]),
    (SEPARATION_ARGV, ["separation.csv", "separation.json"], ["--config", "{cfg}"]),
    (SEPARATION_ARGV, ["separation.csv", "separation.json"], ["--config={cfg}"]),
], ids=["gap", "separation", "separation-config-equals"])
def test_config_replays_into_a_new_out(tmp_path, argv, results, config):
    # the replay names no subcommand: it comes from the recorded config
    run = tmp_path / "run"
    assert main(argv + ["--seed", "2", "--out", str(run)]) == 0
    other = tmp_path / "other"
    config = [arg.replace("{cfg}", str(run / "config.json")) for arg in config]
    assert main(config + ["--out", str(other)]) == 0
    for name in results:
        assert (other / name).read_bytes() == (run / name).read_bytes()
    replayed = read(other / "config.json")
    assert replayed.pop("out") == str(other)
    recorded = read(run / "config.json")
    recorded.pop("out")
    assert replayed == recorded


def test_explicit_subcommand_wins_over_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "separation", "seed": 5}))
    out = tmp_path / "o"
    assert main(["shatter", "--signs", "+-", "--config", str(cfg),
                 "--out", str(out)]) == 0
    config = read(out / "config.json")
    assert config["command"] == "shatter" and config["seed"] == 5
    assert (out / "certificate.json").exists()
    assert not (out / "separation.json").exists()


@pytest.mark.parametrize("recorded, argv, signs, seed", [
    ("+-+", ["--config", "{cfg}", "--out={b}"], [1, -1, 1], 0),
    ("+-+", ["--config", "{cfg}", "--sig", "++", "--out", "{b}"], [1, 1], 0),
    ("+-+", ["--config", "{cfg}", "--seed=7", "--out", "{b}"], [1, -1, 1], 7),
    ("-+-", ["--config", "{cfg}", "--out", "{b}"], [-1, 1, -1], 0),
    ("+-+", ["shatter", "--config={cfg}", "--out", "{b}"], [1, -1, 1], 0),
], ids=["out-equals", "abbreviated", "seed-equals",
        "recorded-value-starting-with-minus", "config-equals"])
def test_replay_honours_every_spelling_of_a_flag(tmp_path, recorded, argv,
                                                 signs, seed):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["shatter", "--signs=" + recorded, "--out", str(a)]) == 0
    config = (a / "config.json").read_bytes()
    argv = [arg.replace("{b}", str(b)).replace("{cfg}", str(a / "config.json"))
            for arg in argv]
    assert main(argv) == 0
    assert read(b / "certificate.json")["signs"] == signs
    replayed = read(b / "config.json")
    assert replayed["out"] == str(b) and replayed["seed"] == seed
    assert (a / "config.json").read_bytes() == config


def test_json_echoes_only_this_runs_files(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["gap", "--n", "4", "--support", "16", "--draws", "200",
                 "--resamples", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["bound", "--n", "4", "--m", "32", "--T", "1", "--json",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == (out / "bound.json").read_text()
    assert (out / "gap.json").exists()


SINE_8 = instance_to_json(make_sine(0.7, support=8))
SUBSPACE_3 = instance_to_json(make_subspace([0.6, 0.0, 0.8], [0.1, 0.0, 0.2]))
SEPARABLE = instance_to_json(make_separable_from_fixed_points([0, 0.5, 1]))
THREE_PARAM = instance_to_json(make_three_param())
BOOLEAN_1 = instance_to_json(make_boolean([(0, 1)]))
TAMPERED_WITNESS = instance_to_json(make_sine_shattered([1, -1, 1, 1]))
TAMPERED_WITNESS["witness"]["entries"][1]["sine"] = 5.0
TAMPERED_WITNESS["witness"]["entries"][2]["frac"] = "1/2"
SUBSPACE_OTHER_RULE = {"family": "subspace", "v": [0.6], "y0": [0.1],
                       "label_rule": {"rule": "hyperplane", "wx": 1.0,
                                      "wy": [0.5], "offset": 0.0}}


@pytest.mark.parametrize("instance, argv", [
    ({"family": "nope"}, ["fit-multimodal"]),
    ({}, ["fit-multimodal"]),
    ([], ["fit-multimodal"]),
    (SINE_8, ["fit-unimodal", "--cls", "singleton"]),
    (SINE_8, ["gap", "--cls", "singleton", "--resamples", "2", "--draws", "100"]),
    (None, ["gaussavg", "--cls", "composed-sine"]),
    (None, ["gaussavg", "--cls", "scaling"]),
    (None, ["gaussavg", "--cls", "scaling", "--points=nan,1"]),
    (None, ["gaussavg", "--cls", "singleton", "--points", "0.5", "--y-points=-inf"]),
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
    (BOOLEAN_1, ["fit-unimodal", "--n", "6", "--grid", "3000"]),
    (SUBSPACE_OTHER_RULE, ["fit-unimodal", "--cls", "scaling"]),
    (TAMPERED_WITNESS, ["fit-unimodal"]),
], ids=["unknown-family", "no-family", "not-an-object", "fit-unimodal-singleton",
        "gap-singleton",
        "gaussavg-no-indices", "gaussavg-no-points", "gaussavg-nan-point",
        "gaussavg-infinite-y-point", "necessity-no-trials",
        "necessity-no-points", "fit-joint-no-budget", "separation-no-trials",
        "separation-no-grid", "repr-compare-no-points", "gap-no-resamples",
        "realizability-subspace", "realizability-boolean-subspace",
        "fit-multimodal-subspace", "bound-subspace", "bound-separable",
        "bound-three-param", "gap-boolean", "fit-unimodal-composed-sine-at-zero",
        "subspace-other-label-rule", "fit-unimodal-tampered-witness"])
def test_lab_errors_exit_one(tmp_path, capsys, instance, argv):
    if instance is not None:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        argv = argv + ["--instance", str(path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err
    # a failed run writes nothing, not even its config
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, content", [
    ("--config", None), ("--config", "[1, 2]"), ("--config=", None),
], ids=["no-path", "json-list", "equals-no-path"])
def test_bad_config_exits_one(tmp_path, capsys, flag, content):
    argv = ["shatter", "--signs", "+-", flag]
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
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("argv", [["separation", "--workers", "1"],
                                  ["separation", "--n", "two"]],
                         ids=["flag-the-command-lacks", "non-integer"])
def test_usage_errors_exit_one(tmp_path, capsys, argv):
    # exit 2 is kept for a failed threshold
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def _subparsers():
    return next(action.choices for action in build_parser()._actions
                if action.dest == "command")


COMMANDS = _subparsers()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_subcommand_help_exits_zero(capsys, command):
    assert main([command, "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def _numeric_options(command):
    """(config key, flag) of every option of command that takes a number."""
    return sorted((action.dest, action.option_strings[0])
                  for action in COMMANDS[command]._actions
                  if action.type in (int, float))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _names_no_option(command, flag: str) -> bool:
    """True when argparse cannot read flag as an option of command, not even
    as an abbreviation."""
    return not any(option.startswith(flag.split("=")[0])
                   for option in COMMANDS[command]._option_string_actions)


# subcommands whose every option has a default, so a config naming only the
# command and one key would run if that key were valid
NO_REQUIRED = ["bound", "gap", "necessity", "repr-compare", "separation"]
NON_NUMERIC = st.text(max_size=8).filter(lambda t: not _is_number(t))
NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_-", min_size=1, max_size=8)
MISSING = object()


@st.composite
def rejected_inputs(draw):
    """(argv, config file content or None or MISSING) that the CLI must
    reject while parsing; argv reads the config path as {config}."""
    case = draw(st.sampled_from(["unknown-flag", "unknown-subcommand",
                                 "non-numeric", "config-missing",
                                 "config-not-json", "config-not-object",
                                 "config-wrong-type", "config-unknown-key"]))
    command = draw(st.sampled_from(sorted(COMMANDS)))
    if case == "unknown-flag":
        flag = "--" + draw(NAMES)
        assume(_names_no_option(command, flag))
        return [command, flag], None
    if case == "unknown-subcommand":
        name = draw(NAMES.filter(lambda t: not t.startswith("-")))
        assume(name not in COMMANDS)
        return [name], None
    if case == "non-numeric":
        _, flag = draw(st.sampled_from(_numeric_options(command)))
        return [command, flag, draw(NON_NUMERIC)], None
    prefix = draw(st.sampled_from([[], [command]]))
    if case == "config-missing":
        return prefix + ["--config", "{config}"], MISSING
    if case == "config-not-json":
        text = draw(st.text(max_size=12))
        try:
            json.loads(text)
        except ValueError:
            return prefix + ["--config", "{config}"], text
        assume(False)
    if case == "config-not-object":
        value = draw(st.one_of(st.none(), st.booleans(), st.integers(),
                               st.text(max_size=8), st.lists(st.integers(), max_size=3)))
        return prefix + ["--config", "{config}"], json.dumps(value)
    command = draw(st.sampled_from(NO_REQUIRED))
    if case == "config-wrong-type":
        key, _ = draw(st.sampled_from(_numeric_options(command)))
        value = draw(st.one_of(st.none(), st.just(True), NON_NUMERIC,
                               st.lists(st.integers(), max_size=2),
                               st.dictionaries(NAMES, st.integers(), max_size=2)))
    else:
        key = draw(NAMES)
        assume(key != "command"
               and _names_no_option(command, "--" + key.replace("_", "-")))
        value = draw(st.integers(0, 9))
    return ["--config", "{config}"], json.dumps({"command": command, key: value})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=rejected_inputs())
def test_rejected_inputs_exit_one_before_running(case):
    argv, content = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        if content is not None and content is not MISSING:
            config.write_text(content)
        argv = [str(config) if a == "{config}" else a for a in argv]
        out = Path(tmp) / "out"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--out", str(out)])
        assert code == 1
        assert "error" in err.getvalue()
        assert not out.exists()


def test_workers_flag_only_on_monte_carlo_commands():
    commands = next(action.choices for action in build_parser()._actions
                    if action.dest == "command")
    takes = {name for name, sub in commands.items()
             if "--workers" in sub._option_string_actions}
    assert takes == {"gaussavg", "gap", "repr-compare"}


def _draw_sizes(draw, argv, limits):
    """argv with each (flag, hi) of limits left out, or given a size in
    1..hi, a size in -2..0, or a word that is not a number."""
    for flag, hi in limits:
        kind = draw(st.sampled_from(["none", "size", "size", "size", "small",
                                     "text"]))
        if kind != "none":
            value = {"size": st.integers(1, hi), "small": st.integers(-2, 0),
                     "text": NON_NUMERIC}[kind]
            argv += [flag, str(draw(value))]
    return argv


def _run_main(argv, instance=MISSING):
    """main's exit code for argv, with instance (if given) written to a
    file that --instance names, and the output in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()):
        if instance is not MISSING:
            path = Path(tmp) / "instance.json"
            path.write_text(json.dumps(instance))
            argv = argv + ["--instance", str(path)]
        return main(argv + ["--out", str(Path(tmp) / "out")])


@st.composite
def separation_argv(draw):
    """separation argv whose sizes are left out, positive, zero, negative or
    not numbers; the depths reach past the float64 cap on y, which is
    refused early.  --trials stays at most 2 and --grid at most 20,000."""
    return _draw_sizes(draw, ["separation"], (("--n", 60), ("--m", 400),
                                              ("--trials", 2), ("--grid", 20_000)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=separation_argv())
def test_separation_exits_with_a_code_for_any_sizes(argv):
    if "--trials" not in argv:
        argv += ["--trials", "1"]
    if "--grid" not in argv:
        argv += ["--grid", "1000"]
    assert _run_main(argv) in (0, 1, 2)


# every instance file the lab writes or refuses, for fit-unimodal to read
FIT_UNIMODAL_INSTANCES = [
    SINE_8, BOOLEAN_1, SUBSPACE_3, SEPARABLE, THREE_PARAM,
    instance_to_json(make_sine_shattered([1, -1, -1, 1, 1, -1])),
    TAMPERED_WITNESS, SUBSPACE_OTHER_RULE, {"family": "nope"}, []]


@st.composite
def fit_unimodal_argv(draw):
    """(instance, fit-unimodal argv): every class the CLI names and one it
    does not, and sizes that are left out, positive, zero, negative or not
    numbers.  --n stays at most 64 and --grid at most 10^6."""
    argv = ["fit-unimodal"]
    cls = draw(st.sampled_from([None, "nope"] + sorted(_CLASSES)))
    if cls is not None:
        argv += ["--cls", cls]
    argv = _draw_sizes(draw, argv, (("--n", 64), ("--grid", 10**6)))
    return draw(st.sampled_from(FIT_UNIMODAL_INSTANCES)), argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=fit_unimodal_argv())
def test_fit_unimodal_exits_with_a_code_for_any_argv(case):
    instance, argv = case
    assert _run_main(argv, instance) in (0, 1, 2)


# numbers, non-finite numbers and words, as a comma-separated list holds them
POINT = st.one_of(st.floats(-2.0, 2.0).map(repr),
                  st.sampled_from(["0", "1", "nan", "inf", "-inf", "x", ""]))
# lattice indices: positive, zero or negative, past the float64 cap on y,
# or not a number
INDEX = st.one_of(st.integers(-2, 300).map(str), st.just("a"))
# a confidence or ratio: inside and outside (0, 1), non-finite or a word
LEVEL = st.one_of(st.sampled_from(["0.05", "0.5", "0.999", "0", "1", "-0.1",
                                   "1.5", "1e-300", "1e308", "nan", "inf"]),
                  NON_NUMERIC)


@st.composite
def gaussavg_argv(draw):
    """gaussavg argv: every class the CLI names and one it does not, either
    kind, points, y points and indices as lists that may be empty, and sizes
    as above.  Lists hold at most 12 entries, --draws stays at most 300 and
    --workers at most 3."""
    argv = ["gaussavg"]
    cls = draw(st.sampled_from([None, "nope"] + sorted(_CLASSES)))
    if cls is not None:
        argv += ["--cls", cls]
    kind = draw(st.sampled_from([None, "gaussian", "rademacher"]))
    if kind is not None:
        argv += ["--kind", kind]
    for flag, entry in (("--points", POINT), ("--y-points", POINT),
                        ("--indices", INDEX)):
        if draw(st.booleans()):
            # flag=value, so a list that starts with "-" reaches the program
            argv.append(f"{flag}={','.join(draw(st.lists(entry, max_size=12)))}")
    return _draw_sizes(draw, argv, (("--draws", 300), ("--workers", 3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=gaussavg_argv())
def test_gaussavg_exits_with_a_code_for_any_argv(argv):
    assert _run_main(argv) in (0, 1, 2)


@st.composite
def gap_argv(draw):
    """(instance or MISSING, gap argv): the lab's instance files and refused
    ones or none, every CLI class and an unknown one, and sizes as above.
    --n stays at most 16, --support at most 80, --draws at most 300,
    --resamples at most 3 and --workers at most 3."""
    argv = ["gap"]
    cls = draw(st.sampled_from([None, "nope"] + sorted(_CLASSES)))
    if cls is not None:
        argv += ["--cls", cls]
    argv = _draw_sizes(draw, argv, (("--n", 16), ("--support", 80),
                                    ("--draws", 300), ("--resamples", 3),
                                    ("--workers", 3)))
    return draw(st.sampled_from([MISSING] + FIT_UNIMODAL_INSTANCES)), argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=gap_argv())
def test_gap_exits_with_a_code_for_any_argv(case):
    instance, argv = case
    # the defaults, 30 resamples of 2,000 draws, take seconds per run
    if "--draws" not in argv:
        argv += ["--draws", "100"]
    if "--resamples" not in argv:
        argv += ["--resamples", "1"]
    assert _run_main(argv, instance) in (0, 1, 2)


@st.composite
def bound_argv(draw):
    """(instance or MISSING, bound argv): the lab's instance files and
    refused ones or none, sizes as above and any confidence.  --n stays at
    most 16, --m at most 256 and --T at most 4."""
    argv = _draw_sizes(draw, ["bound"], (("--n", 16), ("--m", 256), ("--T", 4)))
    if draw(st.booleans()):
        argv.append(f"--delta={draw(LEVEL)}")
    return draw(st.sampled_from([MISSING] + FIT_UNIMODAL_INSTANCES)), argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=bound_argv())
def test_bound_exits_with_a_code_for_any_argv(case):
    instance, argv = case
    assert _run_main(argv, instance) in (0, 1, 2)


@st.composite
def repr_compare_argv(draw):
    """repr-compare argv with sizes as above and any ratio bar.  --n stays
    at most 10, which is 1,024 least-squares solves, --k at most 16, --draws
    at most 300 and --workers at most 3."""
    argv = _draw_sizes(draw, ["repr-compare"], (("--n", 10), ("--k", 16),
                                                ("--draws", 300), ("--workers", 3)))
    if draw(st.booleans()):
        argv.append(f"--min-ratio={draw(LEVEL)}")
    return argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=repr_compare_argv())
def test_repr_compare_exits_with_a_code_for_any_argv(argv):
    # the default --n 8 stays; more points cost 2^n solves
    assert _run_main(argv) in (0, 1, 2)
