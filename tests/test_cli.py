"""Tests for the experiment runner: configs, determinism, exit codes."""

import csv
import hashlib
import io
import json
import random

import pytest

from randlab.cli import config_digest, main, parse_config, run_command
from randlab.dyadic import MAX_LEVEL
from randlab.errors import ConfigError
from randlab.groups import MAX_WINDOW
from randlab.suites import (
    DENSITY_EPS,
    constant_fiber_case,
    neighborhood_case,
    suite_metric_axioms,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def strip_runtime(report: str) -> str:
    lines = report.splitlines()
    out = []
    for line in lines:
        if line.startswith("experiment_id") or line.startswith("{"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return "\n".join(out)


def test_parse_config_basics():
    cfg = parse_config("a = 1\n# comment\n\nb = x y z\n")
    assert cfg == {"a": "1", "b": "x y z"}


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as info:
        parse_config("a = 1\nbroken line\n")
    assert "line 2" in str(info.value)
    with pytest.raises(ConfigError) as dup:
        parse_config("a = 1\na = 2\n")
    assert "line 2" in str(dup.value)


def test_digest_is_order_independent():
    assert config_digest("metrics", {"a": "1", "b": "2"}) == config_digest(
        "metrics", {"b": "2", "a": "1"}
    )
    assert config_digest("metrics", {"a": "1"}) != config_digest("tower", {"a": "1"})


def test_metrics_deterministic_reports():
    cfg = {"level": "3", "window": "5", "count": "4", "seed": "11"}
    status1, rep1 = run_command("metrics", cfg)
    status2, rep2 = run_command("metrics", cfg)
    assert status1 == status2 == 0
    assert strip_runtime(rep1) == strip_runtime(rep2)


def test_metrics_requires_seed():
    with pytest.raises(ConfigError):
        run_command("metrics", {"level": "3", "count": "2"})


def test_explicit_elements():
    cfg = {
        "a": "tilde { step 1 [(0 1), ()] ; mpt 1 1 0 }",
        "b": "tilde { step 0 [()] ; mpt 0 0 }",
    }
    status, rep = run_command("metrics", cfg)
    assert status == 0
    line = rep.splitlines()[1]
    assert ",1/1," in line  # lu_exact: fiber moves half, map moves all


def test_tower_command():
    status, rep = run_command(
        "tower", {"mpt": "shift:6", "height": "8", "bound": "0"}
    )
    assert status == 0
    assert "1/8" in rep


def test_synthesize_certificates_jsonl():
    cfg = {
        "count": "1",
        "level": "8",
        "height": "8",
        "k": "4",
        "seed": "3",
        "emit_certificates": "true",
    }
    status, rep = run_command("synthesize", cfg, fmt_name="jsonl")
    assert status == 0
    rows = [json.loads(line) for line in rep.splitlines()]
    kinds = {r["kind"] for r in rows}
    assert {"summary", "step", "loop"} <= kinds
    assert all(r["pass"] == "true" for r in rows)


def test_power_explicit_perm():
    status, rep = run_command("power", {"perm": "(0 1 2 3 4 5)", "n": "2"})
    assert status == 0
    assert "3:2" in rep


def test_verify_small_scale():
    status, rep = run_command("verify", {"scale": "0.02", "seed": "1"})
    assert status == 0
    assert rep.count("true") == 10


def test_main_entry_and_exit_codes(tmp_path, capsys):
    cfg = write(tmp_path, "tower.cfg", "mpt = shift:5\nheight = 4\nbound = 0\n")
    assert main(["tower", "--config", cfg]) == 0
    capsys.readouterr()
    bad = write(tmp_path, "bad.cfg", "no equals sign\n")
    assert main(["tower", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_main_writes_output_file(tmp_path):
    cfg = write(tmp_path, "m.cfg", "level = 2\nwindow = 4\ncount = 2\nseed = 7\n")
    out = tmp_path / "report.csv"
    assert main(["metrics", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().startswith("experiment_id")


def test_seed_flag_overrides_config(tmp_path):
    cfg = {"level": "3", "window": "5", "count": "3", "seed": "1"}
    _, rep1 = run_command("metrics", cfg, seed=99)
    _, rep2 = run_command("metrics", dict(cfg, seed="99"), seed=None)
    assert strip_runtime(rep1) == strip_runtime(rep2)


def test_certificate_reports_keep_runtime_last():
    cfg = {
        "count": "1",
        "level": "6",
        "height": "4",
        "k": "3",
        "seed": "3",
        "emit_certificates": "true",
    }
    status1, rep1 = run_command("synthesize", cfg)
    status2, rep2 = run_command("synthesize", cfg)
    assert status1 == status2 == 0
    assert rep1.splitlines()[0].endswith(",runtime_s")
    assert strip_runtime(rep1) == strip_runtime(rep2)


def test_empty_report_fails():
    status, _ = run_command("metrics", {"count": "-1", "seed": "1"})
    assert status == 1


@pytest.mark.parametrize("value", ["shift:abc", "cycle:x", "shift:-1"])
def test_bad_mpt_levels_are_config_errors(tmp_path, capsys, value):
    cfg = write(tmp_path, "tower.cfg", f"mpt = {value}\nheight = 4\n")
    assert main(["tower", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,text",
    [
        ("synthesize", "seed = 1\nheight = 0\n"),
        ("synthesize", "seed = 1\nlevel = 3\nheight = 16\n"),
        ("tower", "mpt = shift:5\nheight = 0\n"),
        ("density", "seed = 1\neps = 0\n"),
        ("density", "seed = 1\neps = -1/2\n"),
        ("power", "perm = (0 1 2)\nn = 0\n"),
        ("metrics", "seed = 1\nlevel = -1\n"),
        ("verify", "scale = -1\n"),
        ("verify", "scale = 0\n"),
    ],
)
def test_out_of_range_values_are_config_errors(tmp_path, capsys, command, text):
    cfg = write(tmp_path, "bad.cfg", text)
    assert main([command, "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,text",
    [
        ("metrics", "seed = 1\nwitnes_budget = 0\n"),
        ("tower", "mpt = shift:5\nheight = 4\nhieght = 4\n"),
        ("synthesize", "seed = 1\nemit_certificate = true\n"),
        ("density", "seed = 1\nlevel = 3\n"),
        ("verify", "scale = 0.02\ncount = 2\n"),
        ("power", "perm = (0 1 2)\nwindow = 4\n"),
    ],
)
def test_unknown_keys_are_config_errors(tmp_path, capsys, command, text):
    cfg = write(tmp_path, "typo.cfg", text)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "unknown key" in err


@pytest.mark.parametrize(
    "command,text",
    [
        ("metrics", "a = tilde { step 0 [(0 1)] ; mpt 0 0 }\n"
                    "b = tilde { step 0 [()] ; mpt 0 0 }\nseed = 4\n"),
        ("tower", "mpt = shift:3\nheight = 2\nseed = 4\n"),
        ("power", "perm = (0 1 2)\nn = 2\nseed = 4\n"),
    ],
)
def test_commands_that_sample_nothing_accept_a_seed(tmp_path, command, text):
    cfg = write(tmp_path, "seeded.cfg", text)
    assert main([command, "--config", cfg, "--seed", "9"]) == 0


@pytest.mark.parametrize(
    "command,text",
    [
        ("tower", "mpt = shift:64\nheight = 1\n"),
        ("tower", "mpt = cycle:64\nheight = 1\n"),
        ("tower", "mpt = mpt 64 0\nheight = 1\n"),
        ("tower", "mpt = mpt -1\nheight = 1\n"),
        ("synthesize", "seed = 1\nlevel = 64\n"),
        ("metrics", "seed = 1\nlevel = 64\n"),
    ],
)
def test_levels_past_the_bound_exit_2(tmp_path, capsys, command, text):
    cfg = write(tmp_path, "bad.cfg", text)
    assert main([command, "--config", cfg]) == 2
    assert str(MAX_LEVEL) in capsys.readouterr().err


def test_suite_with_zero_checks_fails():
    result = suite_metric_axioms(triples=0)
    assert result.checks == result.failures == 0
    assert not result.passed


def test_density_runs_the_criterion_scenario():
    status, rep = run_command("density", {"seed": "5", "count": "2"})
    assert status == 0
    rows = rep.splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["neighborhood", "constant-fiber"] * 2
    # the report's values are those of the case builders on the same draws
    rng = random.Random(5)
    values = []
    for _ in range(2):
        nbhd = neighborhood_case(rng, DENSITY_EPS)
        const = constant_fiber_case(rng, DENSITY_EPS)
        residual = max(nbhd.out.fiber_residuals + nbhd.out.aut_residuals)
        values += [f"{x.numerator}/{x.denominator}" for x in (residual, const.out.lu_value)]
    assert [r.split(",")[3] for r in rows] == values


# SHA-256 of each report with its trailing runtime column removed, recorded
# before the CLI's corpora moved into the suites' case builders
PINNED_REPORTS = [
    (
        "synthesize",
        {"seed": "3", "count": "2", "level": "7", "height": "8", "k": "4",
         "emit_certificates": "true"},
        "cee869c7761af6a52d35090afcf98b36151b1eca64ac587b70b0e07c425ed4ac",
    ),
    (
        "synthesize",
        {"seed": "4", "count": "1", "level": "8", "height": "16", "k": "5",
         "window": "6", "eps": "1/4", "emit_certificates": "true"},
        "3ade6c46f57d0dbdbc29ec7b99d2d890971c11b63091be7101ced4fee3b22fb4",
    ),
    (
        "metrics",
        {"seed": "11", "level": "3", "window": "5", "count": "3"},
        "8d2fbaa14fb393f4832f1620bfbd6f963005c6b28f48b1557937b765cd0d8dcd",
    ),
    (
        "metrics",
        {"a": "tilde { step 1 [(0 1), (1 2)] ; mpt 1 1 0 }",
         "b": "tilde { step 0 [(0 2)] ; mpt 0 0 }"},
        "f8ca629d1d7207053897d891087330a66f3e6f0ec8848f1adc81c484465ca6ba",
    ),
    (
        "tower",
        {"mpt": "shift:6", "height": "8", "bound": "0"},
        "dca0f46336ebce481316753a97b4ca627acd0c6963563d9fb9c2df297cabffca",
    ),
    (
        "tower",
        {"mpt": "cycle:7", "seed": "5", "height": "16", "bound": "1/8"},
        "1ab971b1ae8e8a5c43ae0e0270c23a731b42fa661a3da8960ee6e5f72ac521d0",
    ),
    (
        "power",
        {"perm": "(0 1 2 3 4 5)(6 7 8 9)", "n": "4"},
        "13578b3fb6c0c0ac10a12f69559043429050901dcdec2719682a42b9c561989c",
    ),
    (
        "power",
        {"seed": "2", "count": "5", "max_n": "6"},
        "7e7bc98407a12670c6e136eb1fbf6d6bd4bedfba1de97bb78f3a91c2578fa417",
    ),
    (
        "verify",
        {"scale": "0.02", "seed": "1"},
        "e2c393a0dc56112e4f9860a361651e5236c7b317ab0acde40aab2f8771cc09ab",
    ),
]


@pytest.mark.parametrize(
    "command,cfg,digest",
    PINNED_REPORTS,
    ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(PINNED_REPORTS)],
)
def test_pinned_report_digests(command, cfg, digest):
    status, rep = run_command(command, cfg)
    assert status == 0
    rows = list(csv.reader(io.StringIO(rep)))
    assert rows[0][-1] == "runtime_s"
    body = "\n".join(",".join(r[:-1]) for r in rows)
    assert hashlib.sha256(body.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["metrics", "synthesize"])
def test_window_past_the_bound_exits_2(tmp_path, capsys, command):
    # 2**40 images per interval could never be allocated, so the bound
    # must stop it before any sampling starts
    cfg = write(tmp_path, "bad.cfg", f"seed = 1\nlevel = 3\nwindow = {2 ** 40}\n")
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(MAX_WINDOW) in err


@pytest.mark.parametrize("command", ["metrics", "synthesize"])
def test_window_at_the_bound_is_accepted(command):
    cfg = {"seed": "1", "level": "0", "window": str(MAX_WINDOW), "count": "1"}
    if command == "synthesize":
        cfg.update(level="3", height="2", k="1")
    status, _ = run_command(command, cfg)
    assert status == 0
