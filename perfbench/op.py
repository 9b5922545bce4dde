"""Child process of the benchmark: one operation, measured and checked.

    python3 perfbench/op.py --workload NAME --seed N --trace 0|1 \
        --spawned T --workdir DIR --result FILE [--spans FILE]
    python3 perfbench/op.py --setup-only --workload NAME --spawned T ...
    python3 perfbench/op.py --preflight --result FILE

T is the parent's time.perf_counter() just before it started this process
(CLOCK_MONOTONIC, shared by all processes), so set-up includes interpreter
start. The operation's wall time runs from the first `solve_mfg` call to the
last output; peak RSS is this process's own ru_maxrss at that moment.
The result is written to FILE as JSON; checks run after the wall clock stops.
With --setup-only the operation stops at its first solver call, so set-up can
be sampled more often than whole operations run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


class SetupDone(BaseException):
    """Raised at the first solver call of a set-up probe; the CLI catches
    Exception only, so it unwinds through cli.main with the lock released."""


def preflight(result: Path) -> None:
    import numpy
    import scipy

    import mfgkit
    import reference

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(mfgkit.__file__).resolve().parents:
        raise SystemExit(f"mfgkit was imported from {mfgkit.__file__}, not from {src}")
    worst = reference.vouch()
    result.write_text(json.dumps({
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mfgkit": mfgkit.__version__,
        "vouch": worst,
        "references_agree": all(worst[k] <= tol
                                for k, tol in reference.VOUCH_TOL.items()),
    }))


def run_op(args) -> dict:
    import spans
    from workloads import WORKLOADS

    from mfgkit import mfg

    recorder = spans.Recorder() if args.trace else None
    if recorder:
        recorder.install()
    args.workdir.mkdir(parents=True, exist_ok=True)
    run, check = WORKLOADS[args.workload](args.workdir, args.seed)

    first_solve = []
    solve_mfg = mfg.solve_mfg

    def stamped(*a, **kw):
        if not first_solve:
            first_solve.append(time.perf_counter())
        if args.setup_only:
            raise SetupDone
        return solve_mfg(*a, **kw)

    mfg.solve_mfg = stamped
    try:
        outputs = run()
    except SetupDone:
        return {"status": "setup", "setup_s": first_solve[0] - args.spawned}
    except Exception:
        return {"status": "failed", "detail": traceback.format_exc(limit=-3)}
    finally:
        t_end = time.perf_counter()
        mfg.solve_mfg = solve_mfg
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not first_solve:
        return {"status": "failed", "detail": "the operation never called solve_mfg"}
    t0 = first_solve[0]

    errors, oracle_err, artifact_bytes = check(outputs)
    result = {"status": "incorrect" if errors else "ok", "detail": "; ".join(errors),
              "wall_s": t_end - t0, "setup_s": t0 - args.spawned,
              "peak_rss_mb": peak_mb, "oracle_max_err": oracle_err}
    if recorder:
        recorder.counts["cli.artifact_bytes"] += artifact_bytes
        totals = recorder.totals(t0, t_end)
        result["layers"] = {name: float(value(totals))
                            for name, (_, _, value) in spans.LAYER_METRICS.items()
                            if value is not None}
        if args.spans:
            recorder.dump(args.spans)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--preflight", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, default=None)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    if args.preflight:
        preflight(args.result)
        return 0
    if args.spawned is None:
        args.spawned = time.perf_counter()
    result = run_op(args)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
