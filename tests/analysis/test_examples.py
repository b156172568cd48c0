"""Smoke tests: every example script runs and validates its own claims.

The examples assert kernel-vs-reference equality internally, so "it ran"
is a meaningful check.  The slowest sweeps are exercised with reduced
arguments.
"""

import runpy
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(name: str, argv: list[str] | None = None):
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    _run("quickstart.py")
    output = capsys.readouterr().out
    assert "Twofish-CBC" in output
    assert "orig-rot" in output and "opt" in output


def test_custom_cipher(capsys):
    _run("custom_cipher.py")
    assert "validated" in capsys.readouterr().out


def test_isa_playground(capsys):
    _run("isa_playground.py")
    output = capsys.readouterr().out
    assert "Bottleneck decomposition" in output
    assert "DF" in output


def test_pipeline_view(capsys):
    _run("pipeline_view.py", ["RC6"])
    output = capsys.readouterr().out
    assert "RC6 on 4W" in output
    assert "mean_wait_cycles" in output


def test_vpn_gateway(capsys):
    _run("vpn_gateway.py", ["--session", "256", "--ciphers", "RC4", "Twofish"])
    output = capsys.readouterr().out
    assert "T3" in output
    assert "Twofish" in output


def test_secure_web_server(capsys):
    # Uses module-level constants; just ensure it completes and reports.
    _run("secure_web_server.py")
    output = capsys.readouterr().out
    assert "sess/s" in output
    assert "3DES" in output
