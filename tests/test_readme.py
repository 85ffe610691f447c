"""The README's Python quick tour runs and prints the partition it shows,
and every command of its command-line block exits as documented."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cherednik.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
CLI_BLOCK = re.search(r"## Command line\n.*?```sh\n(.*?)```", README, re.S)
COMMANDS = [line for line in CLI_BLOCK.group(1).splitlines()
            if line.startswith("cherednik ")]


def test_quick_tour_prints_its_partition():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    lines = block.splitlines()
    call = next(i for i, line in enumerate(lines)
                if line.startswith("print(dirac_partition("))
    want = lines[call + 1].removeprefix("# ")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == want


def test_command_block_is_read():
    # an empty parametrization would pass silently
    failing = [line for line in COMMANDS if "--preset corrupted" in line]
    assert len(failing) == 1 and len(COMMANDS) > 1


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_as_documented(line, capsys):
    """Each command exits 0, except the corrupted preset: its documented
    seeded failure exits 1."""
    argv = shlex.split(line, comments=True)[1:]
    want = 1 if "--preset corrupted" in line else 0
    assert main(argv) == want, capsys.readouterr().err
