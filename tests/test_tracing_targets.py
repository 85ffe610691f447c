"""Every function the benchmark tracer wraps still exists.

bench/tracing.py names its targets as strings, and a renamed or deleted
function would only surface when a traced benchmark run installs the
wrappers.  This reads the TARGETS list from the file's syntax tree, so
nothing is wrapped in the test process, and resolves each name.
"""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


class _Blank(ast.NodeTransformer):
    """Replace the namer and sizer functions by None; keep the names the
    comprehension over CLI_COMMANDS needs."""

    def __init__(self, keep):
        self.keep = keep

    def visit_Name(self, node):
        if node.id in self.keep:
            return node
        return ast.copy_location(ast.Constant(None), node)


def _targets():
    tree = ast.parse(TRACING.read_text())
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TARGETS", "CLI_COMMANDS"):
                values[name] = node.value
    commands = ast.literal_eval(values["CLI_COMMANDS"])
    expr = _Blank({"CLI_COMMANDS", "cmd"}).visit(values["TARGETS"])
    code = compile(ast.fix_missing_locations(ast.Expression(expr)),
                   str(TRACING), "eval")
    return eval(code, {"__builtins__": {}, "CLI_COMMANDS": commands})


def test_every_traced_name_resolves():
    targets = _targets()
    assert len(targets) > 20
    for modname, attr, *_ in targets:
        owner = importlib.import_module("cherednik." + modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{modname}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"
