"""Certificates under ``python -O``, which strips ``assert`` statements."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_optimized(code, *args):
    return subprocess.run(
        [sys.executable, "-O", "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=300,
    )


def test_verify_passes_under_optimize(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("scale = 0.02\nseed = 1\n")
    proc = run_optimized(
        "import sys\n"
        "from randlab.cli import main\n"
        "assert False, 'assert statements must be stripped'\n"
        "sys.exit(main(sys.argv[1:]))\n",
        "verify", "--config", str(cfg),
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()[1:]
    assert len(rows) == 10
    assert all(",true," in row for row in rows)


def test_failed_postcondition_raises_under_optimize():
    # an approximation whose periodic map is swapped for the identity: the
    # identity does not climb the columns of the exact tower
    proc = run_optimized(
        "import dataclasses\n"
        "from fractions import Fraction\n"
        "from randlab.dyadic import DyadicMPT, periodic_approximation\n"
        "from randlab.errors import CertificateError\n"
        "pa = periodic_approximation(DyadicMPT.shift(4), 4, Fraction(0))\n"
        "bad = dataclasses.replace(pa, s0=DyadicMPT.identity(4))\n"
        "try:\n"
        "    bad.validate(Fraction(0))\n"
        "except CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CertificateError: levels must be T^k(base)")


def test_window_match_postcondition_raises_under_optimize():
    # a completion with two images swapped is still a bijection, but no
    # longer carries the target onto the power
    proc = run_optimized(
        "from randlab import groups\n"
        "from randlab.errors import CertificateError\n"
        "complete = groups.perm.complete\n"
        "def swapped(assignment, width):\n"
        "    out = list(complete(assignment, width))\n"
        "    out[0], out[1] = out[1], out[0]\n"
        "    return tuple(out)\n"
        "groups.perm.complete = swapped\n"
        "sigma = groups.generic_surrogate(6, 1).realized\n"
        "try:\n"
        "    groups.match_partial(sigma, 1, {0: 1, 1: 2, 2: 0})\n"
        "except CertificateError as exc:\n"
        "    print('CertificateError:', exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CertificateError: window match postcondition failed")
