import sys
from pathlib import Path

# The benchmark runs against the source tree next to it, not an installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
