"""The library's checks survive `python -O`: the CLI prints the same bytes
and exits with the same code with and without it, the scalar layer's
identity checks still raise, and the twelve acceptance criteria pass."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = [
    (["verify", "--group", "I2_5"], None),
    (["verify", "--group", "B3"], None),
    (["partition", "--group", "B2", "--c", "1", "--format", "json"],
     "partition_b2_c1.json"),
    (["export-group", "--group", "Z3", "--format", "json"], "group_z3.json"),
    (["dirac-cohomology", "--group", "B2", "--t", "0", "--c", "1",
      "--sigma", "11x0", "--simple", "--format", "json"],
     "simple_11x0_b2.json"),
]


def _run(flags, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)


@pytest.mark.parametrize("argv, golden", COMMANDS,
                         ids=[" ".join(c[0][:3]) for c in COMMANDS])
def test_cli_output_is_the_same_under_dash_o(argv, golden):
    plain = _run([], ["-m", "cherednik.cli", *argv])
    optimized = _run(["-O"], ["-m", "cherednik.cli", *argv])
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout
    if golden:
        assert plain.stdout == (GOLDEN / golden).read_bytes()


def test_scalar_identity_check_raises_under_dash_o():
    code = ("from cherednik.scalars import _poly_divide_exact\n"
            "try:\n"
            "    _poly_divide_exact([1, 0, 1], [1, 1])\n"
            "except AssertionError as err:\n"
            "    print(err)\n")
    proc = _run(["-O"], ["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "non-exact cyclotomic division"


def test_acceptance_criteria_pass_under_dash_o():
    # pytest rewrites the asserts of test modules into explicit raises, so
    # they still fire under -O; the library's own checks must too
    proc = _run(["-O"], ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                         str(ROOT / "tests" / "test_acceptance.py")])
    out = proc.stdout.decode()
    assert proc.returncode == 0, out[-2000:]
    assert "12 passed" in out
