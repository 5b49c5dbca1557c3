"""Lets `python3 -m pytest bench` import the benchmark modules and svagen
from the source tree."""

import os
import sys

_BENCH = os.path.dirname(os.path.abspath(__file__))
for _path in (_BENCH, os.path.join(os.path.dirname(_BENCH), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
