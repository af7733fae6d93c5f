"""The repository benchmark: one command, four workloads, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream_flat --seed 1 --seconds 15 --trace 0

``--trace 0`` measures untraced and prints every ``end_to_end`` metric of
``BENCHMARK.json``; ``--trace 1`` runs the traced pass and prints every
``per_layer`` metric (a layer the workload leaves idle reads 0).  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; correctness problems go to standard error.  See
``perfbench/README.md`` for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream_flat", "stream_hier", "serve_mixed", "fit")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    import common

    common.import_program()
    if workload in ("stream_flat", "stream_hier"):
        import stream

        mode = "sparse" if workload == "stream_flat" else "hierarchical"
        return stream.run(mode, seed, seconds, trace, work)
    if workload == "serve_mixed":
        import serve_mixed

        return serve_mixed.run(seed, seconds, trace, work)
    import fit

    return fit.run(seed, seconds, trace, work)


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            "perfbench: run from a checkout holding src/repro and BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        values, attempted, failed, problems = _run(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    values["fail_frac"] = failed / attempted if attempted else 1.0
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            if not args.trace:
                problems.append(f"end-to-end metric {name} was not measured")
            values[name] = 0.0  # a layer this workload leaves idle
        metrics[name] = {"value": float(values[name]), "unit": metric["unit"]}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    document = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
