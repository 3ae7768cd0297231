"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro import __version__

from repro.cli import build_parser, main


def test_characterize_subset(capsys):
    assert main(["characterize", "mul6u_acc", "mul6u_rm4"]) == 0
    out = capsys.readouterr().out
    assert "mul6u_rm4" in out and "mul6u_acc" in out
    assert "mul8u_acc" not in out


def test_hws_command(capsys):
    rc = main(["hws", "--multiplier", "mul6u_rm4", "--epochs", "1",
               "--n-train", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "selected" in out


def test_export_verilog(tmp_path, capsys):
    out_file = tmp_path / "m.v"
    rc = main(["export", "--multiplier", "mul6u_rm4",
               "--output", str(out_file)])
    assert rc == 0
    text = out_file.read_text()
    assert text.startswith("module")


def test_export_blif_stdout(capsys):
    assert main(["export", "--multiplier", "mul6u_acc", "--format", "blif"]) == 0
    assert capsys.readouterr().out.startswith(".model")


def test_export_no_netlist(capsys):
    rc = main(["export", "--multiplier", "mul8u_1DMU"])
    assert rc == 1
    assert "no structural netlist" in capsys.readouterr().err


def test_retrain_command_tiny(capsys):
    rc = main([
        "retrain", "--multiplier", "mul6u_rm4", "--arch", "lenet",
        "--epochs", "1", "--pretrain-epochs", "1", "--n-train", "96",
        "--image-size", "12",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mul6u_rm4" in out and "lenet" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_profile_command_retrain(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    table = tmp_path / "table.txt"
    rc = main([
        "profile", "--mode", "retrain", "--epochs", "1", "--n-train", "64",
        "--image-size", "12", "--trace", str(trace), "--table", str(table),
        "--min-coverage", "0.9",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "profiled retrain" in out and "trace coverage" in out
    import json as _json
    doc = _json.loads(trace.read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    for want in ("profile.retrain", "trainer.fit", "trainer.epoch",
                 "lutgemm.gather"):
        assert want in names, want
    assert "span" in table.read_text()


def test_retrain_profile_flag(capsys):
    rc = main([
        "retrain", "--multiplier", "mul6u_rm4", "--epochs", "1",
        "--pretrain-epochs", "1", "--n-train", "48", "--image-size", "12",
        "--profile", "--profile-top", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hotspots by self time" in out


def test_python_dash_m_repro_version():
    """``python -m repro`` runs the same CLI as ``python -m repro.cli``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert __version__ in proc.stdout
