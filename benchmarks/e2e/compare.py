"""``python benchmarks/e2e/compare.py A.json B.json`` — see e2ebench.compare."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from e2ebench.compare import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
