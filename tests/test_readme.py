"""The README's Python quick tour runs and prints the partition it shows."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_tour_prints_its_partition():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
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
