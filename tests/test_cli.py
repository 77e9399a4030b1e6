"""Tests for the experiment runner: configs, determinism, exit codes."""

import json

import pytest

from randlab.cli import config_digest, main, parse_config, run_command
from randlab.errors import ConfigError


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
