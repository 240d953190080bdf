"""The CLI tests start ``python -m lightcone`` as a child process; give it
the same ``src/`` the ``pythonpath`` setting in pyproject.toml gives pytest."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
