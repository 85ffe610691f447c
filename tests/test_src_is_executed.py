"""Every function and method of the library is entered when the program's
own entry points run.

A fresh interpreter runs, under a `sys.settrace` hook that records call
events, every script in demos/, every command of the README's command-line
block and every command of bench/run.py's CLI_COMMANDS through `cli.main`.
Each function, method and nested function defined in src/cherednik/*.py
that is not a dunder must be entered, apart from UNREACHED, where each
entry says why no entry point reaches it.  tests/test_src_has_callers.py
checks the same rule on the syntax tree, where a shared method name can
hide a definition that nothing calls.
"""
import ast
import contextlib
import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cherednik"

UNREACHED = {
    "cli._load_config": "reads a --config file, which no entry point "
                        "passes; tests/test_cli.py runs it",
    "linalg.subspace_intersection": "wrapped by bench/tracing.py and kept "
                                    "for ROADMAP item 5; no caller yet",
    "scalars._lift": "writes a scalar at a larger conductor; every entry "
                     "point stays at one conductor per group",
    "scalars._atan_inv_bounds": "part of real_sign's enclosure of an "
                                "irrational real part, which no entry "
                                "point meets",
    "scalars._pi_bounds": "part of real_sign's enclosure, as above",
    "scalars._cos_bounds": "part of real_sign's enclosure, as above",
    "scalars._malformed": "the error for a malformed scalar; every entry "
                          "point passes well-formed ones",
}


def _definitions():
    """{'module.qualname': 'file:line'} for every function and method in
    src/cherednik, nested ones included, that is not a dunder; the line is
    the first line of its code object (its first decorator, if any)."""
    found = {}

    def walk(body, prefix, fname):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}{node.name}.", fname)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    line = min([node.lineno] + [d.lineno for d in
                                                node.decorator_list])
                    found[f"{fname}.{prefix}{node.name}"] = \
                        f"{fname}.py:{line}"
                walk(node.body, f"{prefix}{node.name}.<locals>.", fname)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()).body, "", path.stem)
    return found


def _entry_points():
    """(name, thunk, expected AssertionError text or None) per entry
    point, in the order they run."""
    from cherednik.cli import main

    sys.path.insert(0, str(ROOT / "bench"))
    import run

    points = [(f"demos/{p.name}",
               lambda p=p: runpy.run_path(str(p), run_name="__main__"), None)
              for p in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S)
    argvs = [shlex.split(line, comments=True)[1:]
             for line in block.group(1).splitlines()
             if line.startswith("cherednik ")]
    argvs += run.CLI_COMMANDS
    for argv in argvs:
        name = "cli " + " ".join(argv)
        points.append((name, lambda argv=argv: main(argv),
                       run.KNOWN_FAILURES.get(name)))
    return points


def entered():
    """Sorted 'file:line' of every src/cherednik code object that the
    entry points call, run in this interpreter."""
    found = set()
    src = str(SRC)

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(src):
            found.add(f"{Path(code.co_filename).name}:{code.co_firstlineno}")

    sys.settrace(on_call)
    try:
        for name, thunk, failure in _entry_points():
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(out):
                    thunk()
            except AssertionError as err:
                if f"AssertionError: {err}" != failure:
                    raise
    finally:
        sys.settrace(None)
    return sorted(found)


def test_every_function_in_src_is_entered_by_an_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    called = set(json.loads(proc.stdout))
    defs = _definitions()
    assert not set(UNREACHED) - set(defs), "allowlisted names must exist"
    missed = sorted(f"{name} ({where})" for name, where in defs.items()
                    if where not in called and name not in UNREACHED)
    assert not missed, f"no entry point enters: {missed}"
    reached = sorted(name for name in UNREACHED if defs[name] in called)
    assert not reached, f"allowlisted but entered: {reached}"


if __name__ == "__main__":
    print(json.dumps(entered()))
