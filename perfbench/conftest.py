"""Lets the benchmark's own tests import finring and the benchmark modules.

    python3 -m pytest perfbench
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
