"""Set-up probe, run in a fresh interpreter: ``python3 -I setup_child.py SRC``.

Prints one JSON line with the seconds spent importing octofast, making the
first ``default_pipeline()`` call (build plus certify) and flattening it, and
the reference time (see reference.py) measured right after, in this process.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import octofast  # noqa: E402
t1 = time.perf_counter()
pipeline = octofast.default_pipeline()
t2 = time.perf_counter()
octofast.flatten(pipeline)
t3 = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))
from reference import reference_ns  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "default_pipeline_s": t2 - t1,
                  "flatten_s": t3 - t2, "reference_ns": reference_ns()}))
