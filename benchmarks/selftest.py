"""Self-test of the output checks: a deliberately corrupted output must be
counted as a failed operation.

    python3 benchmarks/selftest.py

For each workload it runs one operation in-process, checks that it passes,
damages one value of its outputs (`workloads.corrupt`), records it again and
checks that the failure count went up. Exits non-zero if any corruption
slips through.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs as inputs_mod  # noqa: E402
import workloads  # noqa: E402
from worker import Client  # noqa: E402


def main() -> int:
    ok = True
    work_root = ROOT / ".bench_work" / "selftest"
    try:
        for workload in workloads.WORKLOADS:
            work = work_root / workload
            work.mkdir(parents=True, exist_ok=True)
            inputs_mod.make_inputs(workload, seed=0, workdir=work)
            client = Client(workload, ROOT, work)
            client.run_op(0)
            clean = client.failed == 0
            client.last_stdout = workloads.corrupt(workload, client.outdir, client.last_stdout)
            client.record([0])
            caught = client.failed == (1 if clean else 2)
            ok = ok and clean and caught
            print(f"{workload:<9} clean output passes: {clean}; corrupted output counted "
                  f"as a failure: {caught} ({client.errors[-1] if client.errors else 'no defect'})")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
