"""Every module of the package compiles and imports with warnings turned
into errors.  The modules are compiled afresh (no bytecode is read or
written), so a compile-time SyntaxWarning, such as an `is` test against a
literal, fails here; identity checks in the hot loops are written `x == 1`
or `type(x) is int and not x` instead."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_with_warnings_as_errors(src, modules, cache):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import importlib\nfor m in %r:\n    importlib.import_module(m)" % (
        modules,)
    return subprocess.run([sys.executable, "-W", "error", "-c", code],
                          cwd=src, env=env, capture_output=True, text=True,
                          timeout=120)


def test_every_module_imports_with_warnings_as_errors(tmp_path):
    modules = ["cherednik"] + [f"cherednik.{p.stem}" for p in
                               sorted((SRC / "cherednik").glob("*.py"))
                               if p.stem != "__init__"]
    assert "cherednik.linalg" in modules
    run = _import_with_warnings_as_errors(SRC, modules, tmp_path / "cache")
    assert run.returncode == 0, run.stderr


def test_an_is_test_against_a_literal_fails_the_guard(tmp_path):
    (tmp_path / "literal_is.py").write_text("def f(x):\n    return x is 1\n")
    run = _import_with_warnings_as_errors(tmp_path, ["literal_is"],
                                          tmp_path / "cache")
    assert run.returncode != 0
    assert "SyntaxError" in run.stderr and "literal" in run.stderr
