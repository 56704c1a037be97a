"""End-to-end benchmark of the chromalie command-line tool.

    python3 perfbench/run.py --workload mult|basis|sweep|all --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it needs only the standard
library.  One client sends the workload's seeded request list through a
closed loop: each request is its own ``python -m chromalie.cli`` process with
``PYTHONPATH=src``, and the next one starts when it has exited.  Whole passes
over the list repeat while another one is expected to end within S seconds,
and there are at least three of them.  Every answer is checked against an
oracle computed here (see workloads.py and oracles.py).

The time metrics are CPU seconds (user + system) of each request process,
from its own rusage.  The program is single-threaded and CPU-bound, so this
is its wall time less the time the host did not run it; on a shared host
that waiting is much of the run-to-run noise.  setup_s is CPU time too.
Wall-clock figures go to the record and to the human-readable lines.

--trace 0 reports the end-to-end metrics.  --trace 1 follows each plain pass
with a traced one, in which every request runs under tracing.py, and reports
the per-layer metrics.  The last line of standard output is one JSON object;
the full record of the run (environment, request list, every timing and
failure) goes to .perfbench/results/.  ``--workload all`` runs the three
workloads in turn and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, process_time

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUPS = 5            # set-up repetitions; setup_s is their median
MIN_PASSES = 3        # the tail percentile is fixed by this many passes
REQUEST_TIMEOUT = 60  # seconds before a request process is killed
RUN_DEADLINE = 150    # no pass starts after this many seconds
END_TO_END = {"cpu_s": "s", "req_p50_cpu_s": "s", "req_tail_cpu_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


class Runner:
    """Starts request processes one at a time and checks their answers."""

    def __init__(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")

    def spawn(self, command: list[str]) -> dict:
        """Run one process to completion; its own rusage gives the peak RSS."""
        out_path = self.out_dir / "stdout.txt"
        with open(out_path, "w") as out:
            start = perf_counter()
            proc = subprocess.Popen(command, cwd=ROOT, env=self.env,
                                    stdout=out, stderr=subprocess.DEVNULL)
            lock, done = threading.Lock(), []

            def kill():
                with lock:
                    if not done:
                        proc.kill()

            timer = threading.Timer(REQUEST_TIMEOUT, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                with lock:
                    done.append(True)
                timer.cancel()
            elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"seconds": elapsed, "returncode": proc.returncode,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024,
                "stdout": out_path.read_text()}

    def request(self, request: dict, spans_path: Path | None = None) -> dict:
        if spans_path is None:
            prefix = [sys.executable, "-m", "chromalie.cli"]
        else:
            prefix = [sys.executable, str(Path(__file__).with_name(
                "tracing.py")), str(spans_path), request["id"]]
        result = self.spawn(prefix + request["argv"])
        result["error"] = workloads.check(request, result["returncode"],
                                          result.pop("stdout"))
        result["id"] = request["id"]
        return result


def setup(workload: str, seed: int,
          runner: Runner) -> tuple[list, list, list]:
    """Generate inputs and expected answers, then send one warm-up request
    (``--help``, which imports and byte-compiles every module).  Repeated
    SETUPS times; returns the request list, the CPU seconds of each
    repetition (this process's plus the warm-up's) and of each warm-up."""
    durations, warmups = [], []
    for _ in range(SETUPS):
        start = process_time()
        requests = workloads.generate(workload, seed,
                                      WORK / workload / "graphs")
        warmups.append(runner.spawn([sys.executable, "-m", "chromalie.cli",
                                     "--help"])["cpu"])
        durations.append(process_time() - start + warmups[-1])
    return requests, durations, warmups


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(0, 100 * (n - 10) // n)


def percentile(samples: list[float], pct: int) -> float:
    return sorted(samples)[min(len(samples) - 1, len(samples) * pct // 100)]


def list_seconds(passes: list[list[dict]], key: str) -> float:
    """Time to finish the list: each request at its median over passes."""
    return sum(statistics.median(p[i][key] for p in passes)
               for i in range(len(passes[0])))


def measure(requests: list[dict], seconds: float, runner: Runner,
            traced: bool) -> tuple[list[list[dict]], list[list[dict]],
                                   list[list[dict]]]:
    """Whole passes while the next one is expected to end within `seconds`
    (the median pass so far predicts it), and at least MIN_PASSES: traced
    counts are compared across passes.  With tracing, each pass is an
    untraced pass followed by a traced one."""
    start = perf_counter()
    plain, traced_passes, span_docs, ends = [], [], [], [start]

    def another() -> bool:
        elapsed = perf_counter() - start
        step = statistics.median(b - a for a, b in zip(ends, ends[1:]))
        return elapsed + step <= seconds and elapsed < RUN_DEADLINE

    while len(plain) < MIN_PASSES or another():
        plain.append([runner.request(r) for r in requests])
        if traced:
            span_dir = WORK / "spans" / f"pass{len(traced_passes)}"
            span_dir.mkdir(parents=True, exist_ok=True)
            traced_passes.append([
                runner.request(r, span_dir / f"{r['id']}.json")
                for r in requests])
            span_docs.append([read_spans(span_dir / f"{r['id']}.json")
                              for r in requests])
        ends.append(perf_counter())
    return plain, traced_passes, span_docs


def read_spans(path: Path) -> dict:
    """A request killed before it wrote its spans (already counted as failed)
    contributes none."""
    if not path.is_file():
        return {"spans": [], "caches": {}}
    return json.loads(path.read_text())


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(
                                 ROOT.parent)))
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {"git_rev": git_rev, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    shutil.rmtree(WORK / workload, ignore_errors=True)
    shutil.rmtree(WORK / "spans", ignore_errors=True)
    runner = Runner(WORK / workload)
    requests, setups, warmups = setup(workload, seed, runner)
    plain, traced_passes, span_docs = measure(requests, seconds, runner, trace)
    done = [r for p in plain + traced_passes for r in p]
    failures = [{"id": r["id"], "error": r["error"]} for r in done
                if r["error"]]
    samples = [r["seconds"] for p in plain for r in p]
    cpu_samples = [r["cpu"] for p in plain for r in p]
    pass_seconds = [sum(r["seconds"] for r in p) for p in plain]
    # Fixed by the list length, so that the tail reads the same requests
    # however many passes a run fits in.
    pct = tail_percentile(MIN_PASSES * len(requests))
    wall = {"wall_s": list_seconds(plain, "seconds"),
            "req_p50_s": statistics.median(samples),
            "req_tail_s": percentile(samples, pct)}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), **source_identity(),
        "passes": len(plain), "samples": len(samples),
        "tail_percentile": pct, "pass_seconds": pass_seconds, **wall,
        "setup_seconds": setups, "requests": requests,
        "timings": [[{k: r[k] for k in ("id", "seconds", "cpu",
                                         "returncode", "rss_mb")} for r in p]
                    for p in plain],
        "failures": failures,
    }
    correct = not failures
    if not trace:
        values = {
            "cpu_s": list_seconds(plain, "cpu"),
            "req_p50_cpu_s": statistics.median(cpu_samples),
            "req_tail_cpu_s": percentile(cpu_samples, pct),
            "peak_rss_mb": max(r["rss_mb"] for r in done),
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    else:
        layers = [tracing.aggregate(docs) for docs in span_docs]
        # Counts must repeat exactly between passes; times take the median.
        counts = [{k: v for k, v in m.items() if not k.endswith("_s")}
                  for m in layers]
        if any(c != counts[0] for c in counts):
            correct = False
            record["count_mismatch"] = counts
        values = {"cli.startup_s": statistics.median(warmups)}
        for key in layers[0]:
            values[key] = (statistics.median(m[key] for m in layers)
                           if key.endswith("_s") else layers[0][key])
        traced_seconds = [sum(r["seconds"] for r in p) for p in traced_passes]
        values["bench.trace_overhead_ratio"] = (statistics.median(
            traced_seconds) / statistics.median(pass_seconds))
        record["traced_pass_seconds"] = traced_seconds
        units = tracing.METRICS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record["metrics"] = metrics
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    return {"correct": correct, "attempted": len(done),
            "failed": len(failures), "metrics": metrics, "record": str(path),
            "fail_frac": len(failures) / len(done), "tail_percentile": pct,
            "samples": len(samples), "wall": wall}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mult", "basis", "sweep", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chromalie" / "cli.py").is_file():
        print(f"error: no chromalie sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = ["mult", "basis", "sweep"] if args.workload == "all" \
        else [args.workload]
    summary = {}
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: {result['attempted']} requests, fail_frac = "
              f"{result['fail_frac']:g} ({result['failed']} failed), tail at "
              f"p{result['tail_percentile']} of {result['samples']} samples; "
              f"record {result['record']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        if not args.trace:
            for metric, value in result["wall"].items():
                print(f"  {metric} = {value:.6g} s (wall clock, unbounded)")
        summary[name] = {k: result[k] for k in
                         ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary[args.workload] if args.workload != "all"
                     else summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
