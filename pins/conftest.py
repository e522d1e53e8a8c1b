"""The pins share tier-1's helpers and its pinned genus-11 build digest."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
