"""Make ``perfsuite`` importable: the tier-1 command runs from the repo root
with only ``src`` on the path."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
