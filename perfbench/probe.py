"""Set-up probe, run in a fresh interpreter: python3 probe.py SRC_DIR [SPEC]

Times `import sepcurv.cli` (what the `sepcurv` command pays before any
work) and then, when a spec is given, `load_spec` on it, which builds the
surface.  Prints one JSON line: {"import_s": ..., "load_spec_s": ...}.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sepcurv.cli  # noqa: E402

t1 = time.perf_counter()
if len(sys.argv) > 2:
    sepcurv.cli.load_spec(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_spec_s": t2 - t1, "module": sepcurv.__file__}))
