import glob
import os
import subprocess
import sys

import factorgaps

SRC = os.path.dirname(os.path.dirname(factorgaps.__file__))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "*.py")))


def test_demos_run():
    # each demo runs as documented, from the source tree, and prints its tour
    assert DEMOS
    for path in DEMOS:
        res = subprocess.run(
            [sys.executable, path],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert res.returncode == 0, (path, res.stderr)
        assert res.stdout.strip(), path
