"""Benchmark entry point: run one workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scale-heap --seed 2019 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-open --seed 2019 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with the
program untouched; ``--trace 1`` runs the same inputs untraced and traced and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from common import BENCH_DIR, ROOT, WORKLOADS, bootstrap

SPEC_PATH = ROOT / "BENCHMARK.json"


def _units(section: str) -> dict[str, str]:
    spec = json.loads(SPEC_PATH.read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def _emit(attempted: int, failed: int, values: dict, section: str) -> None:
    units = _units(section)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }))


def run(args) -> None:
    workload = WORKLOADS[args.workload]
    if workload.name == "serve-open":
        import serve

        if args.trace:
            attempted, failed, values = serve.measure_traced(args.seed, args.seconds, args.tasks)
            section = "per_layer"
        else:
            attempted, failed, values = serve.measure(args.seed, args.seconds, args.tasks)
            section = "end_to_end"
    else:
        import offline

        tasks = args.tasks or workload.trial_tasks
        if args.trace:
            attempted, failed, values = offline.measure_traced(workload, args.seed, tasks)
            section = "per_layer"
        else:
            attempted, failed, values = offline.measure(workload, args.seed, args.seconds, tasks)
            section = "end_to_end"
    _emit(attempted, failed, values, section)


def self_check() -> int:
    """Run every workload at a tiny size, traced and untraced, and check the output."""
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tasks", "120"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
            label = f"{name} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                units = _units("per_layer" if trace else "end_to_end")
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                if printed != units:
                    problems.append(f"{label}: printed metrics or units differ from BENCHMARK.json")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{label}: correctness checks failed: {result}")
            print(f"{label}: {'ok' if len(problems) == before else 'FAILED'}", file=sys.stderr)
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print(json.dumps({"self_check": "failed" if problems else "passed"}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tasks", type=int, default=None,
                        help="override the trace size (self-check and probes)")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    os.chdir(ROOT)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        import offline

        workload = WORKLOADS[args.workload]
        print(json.dumps({"setup_s": offline.setup_probe(workload, args.seed, args.tasks)}))
        return 0
    run(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
