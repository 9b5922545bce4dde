"""mfgkit benchmark: time to a verified solution, peak memory and per-layer cost.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs one workload (or all four, one after another) as a closed loop: one
operation at a time, each in a fresh child process (perfbench/op.py) with the
package imported from src/ of the checkout and BLAS threads pinned to the
usable core count. A new operation starts only while it is expected to end
within S seconds; the first always runs. Set-up is sampled at least
SETUP_SAMPLES times per run, by set-up-only probes where fewer operations ran.
BENCHMARK.json lists three of the four workloads; README.md says why
solve-lq-gridsearch is run by hand only.

Prints one line per metric, an environment line, and as its last line a JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run alternates
untraced and traced operations to measure the tracing overhead. Each metric is
the median over the run's operations. An operation whose program exits
non-zero counts as failed; one whose outputs miss their references counts as
failed and makes `correct` false. Exits 2 without a result when the package
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench_runs"
WORKLOADS = ("verify-lq", "solve-ex5", "verify-2d", "solve-lq-gridsearch")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "oracle_max_err": "1"}
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s


def child_env() -> tuple[dict, int]:
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + [p for p in [env.get("PYTHONPATH")] if p])
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(threads)
    env.pop("MFGKIT_THREADS", None)
    return env, threads


def op_seed(seed: int, index: int) -> int:
    """The seed the program receives for the run's index-th operation."""
    return random.Random(f"{seed}/{index}").randrange(2 ** 31)


class Runner:
    def __init__(self, env: dict, started: float):
        self.env = env
        self.started = started
        self.workdir = SCRATCH / f"run-{os.getpid()}"

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, extra: list, tag: str) -> tuple[dict, str]:
        """Run op.py with `extra` arguments; (result or {}, stderr tail)."""
        result = self.workdir / f"{tag}.json"
        cmd = [sys.executable, str(BENCH / "op.py"), "--result", str(result),
               "--workdir", str(self.workdir / tag)] + extra
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {}, f"{tag}: timed out"
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        if proc.returncode != 0 or not result.exists():
            return {}, f"{tag}: exit {proc.returncode}\n{tail}"
        out = json.loads(result.read_text())
        shutil.rmtree(self.workdir / tag, ignore_errors=True)
        return out, tail

    def workload(self, name: str, seed: int, seconds: float, trace: bool) -> dict:
        ops, setups = [], []
        begun = time.perf_counter()
        longest = 0.0
        while True:
            index = len(ops)
            traced = trace and index % 2 == 1
            extra = ["--workload", name, "--seed", str(op_seed(seed, index)),
                     "--trace", str(int(traced))]
            if traced:
                extra += ["--spans", str(SCRATCH / f"spans-{name}.json")]
            t = time.perf_counter()
            result, tail = self.child(extra, f"{name}-{index}")
            longest = max(longest, time.perf_counter() - t)
            result.setdefault("status", "failed")
            result["traced"] = traced
            ops.append(result)
            shown = {m: result[m] for m in END_TO_END if m in result}
            if "layers" in result:
                shown["trace.span_coverage"] = result["layers"]["trace.span_coverage"]
            print(f"{name} op {index} seed {extra[3]}{' traced' if traced else ''}: "
                  + " ".join(f"{m} {v:.4g}" for m, v in shown.items())
                  + f" {result['status']} {result.get('detail') or tail}".rstrip(),
                  file=sys.stderr)
            if "setup_s" in result:
                setups.append(result["setup_s"])
            if index + 1 < (2 if trace else 1):
                continue
            elapsed = time.perf_counter() - begun
            if elapsed + longest > min(seconds, self.remaining() - 5.0):
                break
        while not trace and len(setups) < SETUP_SAMPLES and self.remaining() > 30.0:
            probe, _ = self.child(["--workload", name, "--setup-only"],
                                  f"{name}-setup{len(setups)}")
            if probe.get("status") != "setup":
                break
            setups.append(probe["setup_s"])
        return summarize(name, ops, setups, trace)


def median(values: list) -> float:
    return float(statistics.median(values)) if values else float("nan")


def summarize(name: str, ops: list, setups: list, trace: bool) -> dict:
    done = [op for op in ops if op["status"] != "failed"]
    plain = [op for op in done if not op["traced"]]
    if trace:
        traced = [op for op in done if op["traced"]]
        samples = dict.fromkeys(spans.LAYER_METRICS, len(traced))
        metrics = {m: median([op["layers"][m] for op in traced])
                   for m, (_, _, value) in spans.LAYER_METRICS.items() if value}
        metrics["trace.overhead_s"] = (median([op["wall_s"] for op in traced])
                                       - median([op["wall_s"] for op in plain]))
        units = {m: unit for m, (unit, _, _) in spans.LAYER_METRICS.items()}
    else:
        metrics = {m: median([op[m] for op in plain]) for m in END_TO_END}
        metrics["setup_s"] = median(setups)
        samples = {**dict.fromkeys(END_TO_END, len(plain)), "setup_s": len(setups)}
        units = END_TO_END
    return {
        "workload": name,
        "correct": not any(op["status"] == "incorrect" for op in ops),
        "attempted": len(ops),
        "failed": sum(op["status"] != "ok" for op in ops),
        "samples": samples,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    env, threads = child_env()
    runner = Runner(env, started)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        pre, tail = runner.child(["--preflight"], "preflight")
        if not pre:
            print(f"cannot run mfgkit from {ROOT / 'src'}:\n{tail}", file=sys.stderr)
            return 2
        environment = {"cores": os.cpu_count(), "usable_cores": threads,
                       "blas_threads": threads, **pre}
        results = []
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            if results:  # each workload gets the deadline of a single run
                runner.started = time.perf_counter()
            results.append(runner.workload(name, args.seed, args.seconds,
                                           bool(args.trace)))
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    for r in results:
        for m, v in r["metrics"].items():
            print(f"{r['workload']:20s} {m:34s} {v['value']:.6g} {v['unit']} "
                  f"(median of {r['samples'][m]}; {r['failed']}/{r['attempted']} failed)")
    print("environment " + json.dumps(environment))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results
                   for m, v in r["metrics"].items()}
    if any(v["value"] != v["value"] for v in metrics.values()):
        print("no operation completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": pre["references_agree"] and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
