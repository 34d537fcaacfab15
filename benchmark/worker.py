"""One untraced measuring process of a benchmark run.

Times the set-up (numpy and qal imports, the workload's inputs and its
warm-up) in this fresh interpreter, then runs steps first, first + stride,
... for about `seconds` of work and prints one JSON object with the set-up
time, the busy time, the operation latencies and outcomes, the peak RSS and
the CSV hashes. A failed correctness check exits with code 1. run.py starts
several of these one after another and pools them, so that no single
process's memory layout or CPU decides a run.

Usage: python3 benchmark/worker.py <workload> <seed> <first> <stride> <seconds>
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, GateError, run_steps  # noqa: E402


def main() -> int:
    name, seed, first, stride = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    seconds = float(sys.argv[5])
    out_dir = ROOT / ".bench_out" / f"{name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, ROOT, out_dir)
    setup_s = time.perf_counter() - T0
    try:
        busy, latencies, outcomes = run_steps(wl, seconds, first, stride)
    except GateError as e:
        print(f"correctness check failed: {e}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "busy_s": busy,
                "latencies": latencies,
                "outcomes": outcomes,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "csv_sha256": getattr(wl, "csv_sha256", {}),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
