"""Put the package sources and the benchmark modules on ``sys.path``."""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
