"""Self-check of the benchmark harness on a few-second request list.

    python3 perfbench/selfcheck.py

Checks that (1) every answer passes at this commit, (2) each request fails
once its expected answer is corrupted, so no check is vacuous, and (3) two
traced runs of the same seed give identical per-layer counts.  Exits 1 if any
of these does not hold.
"""

from __future__ import annotations

import copy
import sys

import run
import workloads

SEED = 1


def corrupt(expect):
    """The expected answer with its last number changed."""
    if isinstance(expect, list):
        return expect[:-1] + [corrupt(expect[-1])]
    return expect + 1


def main() -> int:
    ok = True

    result = run.run("tiny", SEED, 0, trace=False)
    print(f"answers: {result['failed']} of {result['attempted']} failed")
    ok &= result["failed"] == 0

    runner = run.Runner(run.WORK / "selfcheck")
    requests = workloads.generate("tiny", SEED, run.WORK / "selfcheck")
    missed = []
    for request in requests:
        bad = copy.deepcopy(request)
        bad["check"]["expect"] = corrupt(bad["check"]["expect"])
        if runner.request(bad)["error"] is None:
            missed.append(request["id"])
    print(f"corrupted answers: {len(requests) - len(missed)} of "
          f"{len(requests)} detected {missed or ''}")
    ok &= not missed

    counts = []
    for _ in range(2):
        metrics = run.run("tiny", SEED, 0, trace=True)["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] != "s"
                       and k != "bench.trace_overhead_ratio"})
    differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    print(f"traced counts: {len(counts[0])} compared, "
          f"{len(differ)} differ {differ or ''}")
    ok &= not differ

    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
