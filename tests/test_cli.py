import ast
import json
import os
from pathlib import Path

import pytest

from cherednik import cli, clifford
from cherednik.cli import main
from cherednik.dirac import decompose_kernel_element, omega_tilde
from cherednik.groups import CATALOGUE_IDS, build_group
from cherednik.modules import baby_verma, dirac_cohomology, standard_module
from cherednik.pbw import cherednik_family
from cherednik.scalars import CapExceeded

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
ROOT = Path(__file__).resolve().parent.parent


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_pass(capsys):
    code, payload = run_json(capsys, ["verify", "--group", "A1",
                                      "--t", "1", "--c", "1"])
    assert code == 0
    assert payload["passed"]
    names = [e["identity"] for e in payload["identities"]]
    assert names == ["pbw", "dirac-square", "split-squares",
                     "delta-invariance", "pin-cover"]
    assert all(e["passed"] for e in payload["identities"])


def test_verify_cyclotomic_group(capsys):
    code, payload = run_json(capsys, ["verify", "--group", "Z3",
                                      "--t", "0", "--c", "1"])
    assert code == 0
    assert payload["passed"]


def test_verify_gaha_preset(capsys):
    code, payload = run_json(capsys, ["verify", "--group", "A2",
                                      "--c", "1", "--preset", "gaha"])
    assert code == 0
    names = [e["identity"] for e in payload["identities"]]
    assert "split-squares" not in names
    assert payload["passed"]


def test_verify_corrupted_fails(capsys):
    code, payload = run_json(capsys, ["verify", "--group", "A1",
                                      "--preset", "corrupted"])
    assert code == 1
    states = {e["identity"]: e["passed"] for e in payload["identities"]}
    assert states["pbw"] is False
    assert states["dirac-square"] is None


@pytest.fixture
def broken_pin_lift(monkeypatch):
    """tau_s = 1 - mu A in place of 1 + mu A, on cleared pin caches."""
    factor = clifford._reflection_factor

    def negated(r, alg):
        mu, a = factor(r, alg)
        return -mu, a

    monkeypatch.setattr(clifford, "_reflection_factor", negated)
    clifford._pin_taus.cache_clear()
    clifford.pin_cover_holds.cache_clear()
    yield
    clifford._pin_taus.cache_clear()
    clifford.pin_cover_holds.cache_clear()


def test_broken_pin_lift_is_refused(capsys, broken_pin_lift):
    # the lift is checked once, per generator; every W-action on the spin
    # side and on C(V) refuses to run without it
    assert not any(clifford.pin_cover_holds(build_group(gid))
                   for gid in CATALOGUE_IDS)
    code, payload = run_json(capsys, ["verify", "--group", "B3"])
    assert code == 1
    states = {e["identity"]: e["passed"] for e in payload["identities"]}
    assert states["pin-cover"] is False
    g = build_group("B2")
    with pytest.raises(AssertionError, match="pin lift does not cover B2"):
        dirac_cohomology(baby_verma(g, "2x0", 1))
    fam = cherednik_family(g, 0, 1)
    with pytest.raises(AssertionError, match="pin lift does not cover B2"):
        decompose_kernel_element(omega_tilde(fam), fam)


def test_pbw_check_corruption_kind(capsys):
    code, payload = run_json(capsys, ["pbw-check", "--group", "B2",
                                      "--preset", "corrupted",
                                      "--kind", "radical"])
    assert code == 1
    assert not payload["passed"]
    assert {f["condition"] for f in payload["failures"]} == {2}


def test_cohomology_simple_table(capsys):
    code = main(["dirac-cohomology", "--group", "B2", "--t", "0",
                 "--c", "1", "--sigma", "11x0", "--simple"])
    out = capsys.readouterr().out
    assert code == 0
    assert "11x0" in out and "1x1" in out and "0x2" in out


def test_cohomology_standard_json(capsys):
    code, payload = run_json(capsys, [
        "dirac-cohomology", "--group", "A1", "--t", "1", "--c", "1/3",
        "--sigma", "triv"])
    assert code == 0
    assert payload["H_D"] == [{"irrep": "sgn", "multiplicity": 1,
                               "cells": [[0, 1]]}]
    assert payload["c"] == "1/3"


def test_unknown_sigma_exit_two(capsys):
    assert main(["dirac-cohomology", "--group", "A1", "--t", "1",
                 "--c", "1", "--sigma", "nope"]) == 2
    assert "unknown irrep" in capsys.readouterr().err


def test_unknown_group_exit_two(capsys):
    assert main(["partition", "--group", "E8", "--c", "1"]) == 2


def test_simple_needs_t_zero(capsys):
    assert main(["dirac-cohomology", "--group", "B2", "--t", "1",
                 "--c", "1", "--sigma", "11x0", "--simple"]) == 2


def test_window_cap_is_usage_error(capsys):
    assert main(["dirac-cohomology", "--group", "A1", "--t", "1",
                 "--c", "3", "--sigma", "triv", "--K", "2"]) == 2
    assert "K >= 3" in capsys.readouterr().err


def _unitarity_degrees(capsys, argv):
    code, payload = run_json(capsys, ["unitarity"] + argv)
    assert code == 0
    return payload["K"], [v["degree"] for v in payload["gram_verdicts"]]


def test_k_zero_is_a_window_not_the_default(tmp_path, capsys):
    argv = ["--group", "A1", "--sigma", "triv", "--c", "1/4"]
    assert _unitarity_degrees(capsys, argv + ["--K", "0"]) == (0, [0])
    assert _unitarity_degrees(capsys, argv) == (4, [0, 1, 2, 3, 4])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = A1\nsigma = triv\nc = 1/4\nK = 0\n")
    assert _unitarity_degrees(capsys, ["--config", str(cfg)]) == (0, [0])


@pytest.mark.parametrize("argv", [
    ["unitarity", "--group", "A1", "--sigma", "triv", "--c", "1/4",
     "--K", "-2"],
    ["dirac-cohomology", "--group", "A1", "--t", "1", "--c", "1/3",
     "--sigma", "triv", "--K", "-1"],
])
def test_negative_k_exits_two(capsys, argv):
    assert main(argv) == 2
    assert (capsys.readouterr().err
            == f"error: K must be >= 0, not {argv[-1]}\n")


@pytest.mark.parametrize("extra", [[], ["--simple"]])
def test_k_with_t_zero_exits_two(tmp_path, capsys, extra):
    argv = ["dirac-cohomology", "--group", "B2", "--t", "0", "--c", "1",
            "--sigma", "11x0"] + extra
    assert main(argv + ["--K", "1"]) == 2
    assert "--K needs --t 1" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 0\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "--K needs --t 1" in capsys.readouterr().err


def test_missing_group_exit_two(capsys):
    assert main(["partition", "--c", "1"]) == 2


def test_mixed_c_values_rejected(capsys):
    assert main(["partition", "--group", "B2", "--c", "1",
                 "--c", "long=2"]) == 2


def test_repeated_c_class_exits_two(capsys):
    # a class named twice is refused, not run at its last value
    assert main(["partition", "--group", "B2", "--c", "long=1",
                 "--c", "long=2", "--c", "short=1"]) == 2
    assert capsys.readouterr().err == "error: repeated --c class 'long'\n"


# one valid value of each single-valued flag; None for the switch
_ONE_VALUE = {"group": "A1", "t": "0", "K": "2", "sigma": "triv",
              "preset": "cherednik", "kind": "class", "simple": None,
              "format": "json", "out": "out.json", "config": "run.cfg"}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in cli._COMMANDS.items()
    for flag in flags.split() + ["format", "out", "config"] if flag != "c"])
def test_repeated_flag_exits_two(tmp_path, capsys, command, flag):
    # a repeat is refused at parsing, not run at its last value
    value = _ONE_VALUE[flag]
    if flag in ("out", "config"):
        value = str(tmp_path / value)
    once = ["--" + flag] + ([] if value is None else [value])
    argv = [command] + (["--group", "B2"] if flag != "group" else [])
    assert main(argv + once + once) == 2
    assert capsys.readouterr() == ("", f"error: repeated flag --{flag}\n")
    assert not list(tmp_path.iterdir())


def test_bench_commands_repeat_no_flag():
    # bench/run.py appends --format json to each of its CLI commands
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    names = {}
    for node in tree.body:
        name = getattr(node.targets[0], "id", None) if isinstance(
            node, ast.Assign) else None
        if name in ("CATALOGUE", "CLI_COMMANDS"):
            names[name] = eval(compile(ast.Expression(node.value), "run.py",
                                       "eval"), {"__builtins__": {}, **names})
    assert len(names["CLI_COMMANDS"]) > 20
    for argv in names["CLI_COMMANDS"]:
        cli.build_parser().parse_args(argv + ["--format", "json"])


def test_zero_denominator_exits_two(capsys):
    assert main(["partition", "--group", "B2", "--c", "1/0"]) == 2
    # the whole of stderr: one error line naming the input, no traceback
    assert (capsys.readouterr().err
            == "error: zero denominator in scalar '1/0'\n")


def test_zero_denominator_in_class_parameter_names_it(capsys):
    assert main(["partition", "--group", "A1", "--c", "s=3/0"]) == 2
    assert (capsys.readouterr().err
            == "error: zero denominator in scalar '3/0'\n")


@pytest.mark.parametrize("value", [
    "1e400", "0.5", "1_000", "cyclo(3; 1:1/1, 1:2/1)"])
def test_scalar_outside_the_grammar_exits_two(capsys, value):
    # p/q, an integer or cyclo(N; e:p/q, ...) with distinct exponents
    assert main(["partition", "--group", "A1", "--c", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(value) in err


def test_large_k_reports_the_zero_scalar_window(capsys):
    argv = ["dirac-cohomology", "--group", "A1", "--t", "1", "--c", "1/3",
            "--sigma", "triv"]
    code, big = run_json(capsys, argv + ["--K", "2000"])
    assert code == 0
    assert big == run_json(capsys, argv + ["--K", "3"])[1]


def test_a_window_past_k_is_refused_before_its_degree_is_built(capsys):
    # at c = 300 the zero-scalar degree of B2's 2x0 is 1200; the closed-form
    # character of S^k(h*) refuses it without building that piece
    argv = ["dirac-cohomology", "--group", "B2", "--sigma", "2x0", "--t", "1",
            "--c", "300"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: kernel window needs K >= 1200\n"
    module = standard_module(build_group("B2"), "2x0", 300)
    with pytest.raises(CapExceeded) as err:
        dirac_cohomology(module)
    assert err.value.minimal == 1200
    assert len(module._sections) <= module.K + 2


def test_per_class_parameters(capsys):
    code, payload = run_json(capsys, ["partition", "--group", "B2",
                                      "--c", "long=1", "--c", "short=0"])
    assert code == 0
    assert payload["c"] == {"long": "1/1", "short": "0/1"}
    assert payload["undecided_pairs"] != []


def test_unitarity_json(capsys):
    code, payload = run_json(capsys, ["unitarity", "--group", "A1",
                                      "--sigma", "triv", "--c", "2",
                                      "--K", "3"])
    assert code == 0
    assert not payload["all_psd"]
    assert payload["consistent"]


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = A1\nsigma = triv\nt = 1\nc = 1/2\n")
    code, payload = run_json(capsys, [
        "dirac-cohomology", "--config", str(cfg), "--c", "1/3"])
    assert code == 0
    assert payload["c"] == "1/3"
    code, payload = run_json(capsys, [
        "dirac-cohomology", "--config", str(cfg)])
    assert code == 0
    assert payload["c"] == "1/2"
    # a single-valued flag beside its config key is no repeat
    code, payload = run_json(capsys, [
        "dirac-cohomology", "--config", str(cfg), "--t", "0"])
    assert code == 0
    assert (payload["t"], payload["kind"]) == ("0/1", "baby")


def test_config_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = A1\nsigma = triv\nt = 1\nc = 1/3\nK = 3\n")
    from_config = run_json(capsys, ["dirac-cohomology", "--config", str(cfg)])
    from_flags = run_json(capsys, ["dirac-cohomology", "--group", "A1",
                                   "--sigma", "triv", "--t", "1",
                                   "--c", "1/3", "--K", "3"])
    assert from_config == from_flags
    assert from_config[0] == 0


@pytest.mark.parametrize("c,flags", [
    ("cyclo(5; 1:1/2, 4:1/2)", ["--c", "cyclo(5; 1:1/2, 4:1/2)"]),
    ("long=cyclo(5; 1:1/2, 4:1/2), short=1",
     ["--c", "long=cyclo(5; 1:1/2, 4:1/2)", "--c", "short=1"]),
])
def test_config_c_keeps_the_commas_inside_cyclo(tmp_path, capsys, c, flags):
    # a config c value splits at the commas between entries only
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"group = B2\nsigma = 2x0\nt = 0\nc = {c}\n")
    from_config = run_json(capsys, ["dirac-cohomology", "--config", str(cfg)])
    from_flags = run_json(capsys, ["dirac-cohomology", "--group", "B2",
                                   "--sigma", "2x0", "--t", "0"] + flags)
    assert from_config == from_flags
    assert from_config[0] == 0


@pytest.mark.parametrize("command,text", [
    ("dirac-cohomology", "group = A1\nsigma = triv\nK = x\n"),
    ("export-group", "group = A1\nformat = xml\n"),
])
def test_bad_config_value_exits_two(tmp_path, capsys, command, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(cfg)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "invalid" in captured.err
    assert "Traceback" not in captured.err


def test_config_switch_takes_only_true_or_false(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = B2\nt = 0\nc = 1\nsigma = 11x0\nsimple = ture\n")
    assert main(["dirac-cohomology", "--config", str(cfg)]) == 2
    assert "true or false" in capsys.readouterr().err


def test_repeated_config_key_exits_two(tmp_path, capsys):
    # a key given twice is refused, not run at its last value
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = A1\nc = 1\ngroup = B2\n")
    assert main(["partition", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: repeated config key 'group'\n"


def test_flags_are_per_subcommand(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["unitarity", "--group", "A1", "--sigma", "triv", "--c", "2",
              "--K", "3", "--t", "0"])
    assert err.value.code == 2
    assert "--t" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = B2\nt = 1\n")
    assert main(["partition", "--config", str(cfg)]) == 2
    assert "unknown config key 't'" in capsys.readouterr().err


def test_golden_partition(tmp_path):
    out = tmp_path / "p.json"
    code = main(["partition", "--group", "B2", "--c", "1",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    with open(os.path.join(GOLDEN, "partition_b2_c1.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_golden_export_group(tmp_path):
    out = tmp_path / "g.json"
    code = main(["export-group", "--group", "Z3",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    with open(os.path.join(GOLDEN, "group_z3.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_golden_simple_cohomology(tmp_path):
    out = tmp_path / "s.json"
    code = main(["dirac-cohomology", "--group", "B2", "--t", "0",
                 "--c", "1", "--sigma", "11x0", "--simple",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    with open(os.path.join(GOLDEN, "simple_11x0_b2.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_json_output_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["unitarity", "--group", "B2", "--sigma", "1x1",
                     "--c", "1/3", "--K", "2", "--format", "json",
                     "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag,value,want", [
    ("c", "-1/3", ("1/1", "-1/3")), ("t", "-1/2", ("-1/2", "1/1"))])
@pytest.mark.parametrize("spelling", ["space", "equals", "config"])
def test_negative_fractions_are_values(tmp_path, capsys, flag, value, want,
                                       spelling):
    # argparse alone reads -1/3 as a flag and exits 2
    argv = ["verify", "--group", "A1"]
    if spelling == "space":
        argv += ["--" + flag, value]
    elif spelling == "equals":
        argv += [f"--{flag}={value}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        argv += ["--config", str(cfg)]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert (payload["t"], payload["c"]) == want


def test_a_negative_scalar_after_a_switch_is_still_refused(capsys):
    with pytest.raises(SystemExit) as err:
        main(["dirac-cohomology", "--group", "A1", "--sigma", "triv",
              "--simple", "-1/3"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["verify", "pbw-check"])
@pytest.mark.parametrize("preset,flag,value", [
    ("gaha", "t", "0"), ("corrupted", "t", "1"), ("corrupted", "c", "1/2"),
    ("cherednik", "kind", "class"), ("gaha", "kind", "class")])
@pytest.mark.parametrize("from_config", [False, True])
def test_a_flag_the_preset_does_not_read_is_refused(tmp_path, capsys,
                                                    command, preset, flag,
                                                    value, from_config):
    argv = [command, "--group", "A2", "--preset", preset]
    if from_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag} = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--" + flag, value]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: --preset {preset} does not read --{flag}\n")


def test_the_gaha_report_keeps_its_t(capsys):
    # the default report names t = 1 although the family has no t; the
    # recorded digest of `verify --group B2 --preset gaha` depends on it
    code, payload = run_json(capsys, ["verify", "--group", "B2",
                                      "--preset", "gaha"])
    assert code == 0
    assert (payload["t"], payload["c"], payload["preset"]) == (
        "1/1", "1/1", "graded-affine-hecke")


def test_only_a_negative_scalar_is_joined_to_its_flag(capsys):
    # -5 is a scalar, so --K reads it and refuses it by its own rule;
    # -1/0 is not, so argparse still reads it as a flag
    assert main(["dirac-cohomology", "--group", "A1", "--sigma", "triv",
                 "--K", "-5"]) == 2
    assert capsys.readouterr().err == "error: K must be >= 0, not -5\n"
    with pytest.raises(SystemExit) as err:
        main(["partition", "--group", "A1", "--c", "-1/0"])
    assert err.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
