"""Write the reference reports the benchmark compares every run with.

    python3 perfbench/make_reference.py

Runs each distinct workload command once on the program in ``src/`` and
stores its reports without ``elapsed_ms`` in ``perfbench/reference/``.  The
m = 3 reference comes from a cold run into an empty cache; a warm run on that
cache (with an export) must give the same reports, and the digest of its
export tree is stored too.  Regenerate only from a commit whose reports are
known to be right: a later run is correct exactly when it matches these.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run


def reports_of(inv: run.Invocation) -> list:
    if inv.returncode != 0:
        raise SystemExit(f"reference run exited {inv.returncode}")
    return run.strip_elapsed(json.loads(inv.stdout))


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="ref-", dir=run.scratch_root()))
    try:
        runner = run.Runner(0, scratch, time.monotonic() + 600)
        version = run.preflight(runner)

        args, cache, _ = run.workload_args(run.WORKLOADS["cold-m3"], runner, None)
        cold = reports_of(runner.spawn(runner.cli(args)))
        args, _, export = run.workload_args(run.WORKLOADS["warm-m3"], runner, cache)
        warm = reports_of(runner.spawn(runner.cli(args)))
        if warm != cold:
            raise SystemExit("warm m = 3 reports differ from the cold ones")
        m3 = {"package_version": version, "reports": cold, "export_sha256": run.tree_digest(export)}

        args, _, _ = run.workload_args(run.WORKLOADS["orbits-m4"], runner, None)
        m4 = {"package_version": version, "reports": reports_of(runner.spawn(runner.cli(args)))}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, payload in (("m3", m3), ("orbits-m4", m4)):
        path = run.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(payload['reports'])} reports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
