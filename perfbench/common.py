"""Shared pieces of the benchmark: import bootstrap, workloads, inputs, stats.

The benchmark imports the program from the checkout it sits in (``src/``),
never from an installed copy, so it always measures the tree under test.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch directory for sockets, service reports and span files (ignored by git).
RUN_DIR = ROOT / ".perfbench"

HEURISTIC = "PAMF"


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    name: str
    load_factor: float
    batch_window: int
    #: Tasks in one offline trial; serve-open sizes its trace from the rates.
    trial_tasks: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scale-heap", load_factor=1.15, batch_window=0, trial_tasks=1000),
        Workload("overload-batched", load_factor=2.0, batch_window=120, trial_tasks=1500),
        Workload("serve-open", load_factor=1.15, batch_window=0, trial_tasks=0),
    )
}


#: Distinct (PET, trace) inputs an untraced offline run cycles through.  The
#: cost of a trial depends on its inputs (10-15% between seeds at 1000
#: tasks), so one run averages over several.
INPUTS_PER_RUN = 4


def input_seeds(seed: int) -> list[int]:
    """Seeds of a run's inputs; the first is ``seed`` itself."""
    return [seed + k * 1_000_003 for k in range(INPUTS_PER_RUN)]


def engine_seed(seed: int) -> int:
    """The engine's sampling seed, offset from the workload seed as ``repro serve run`` does."""
    return seed + 2


def build_pet(seed: int):
    from repro.pet.builders import build_spec_pet

    return build_spec_pet(rng=seed)


def build_trace(workload: Workload, seed: int, num_tasks: int, pet):
    from repro.workload.scale import ScaleTraceConfig, generate_scale_trace

    config = ScaleTraceConfig(num_tasks=num_tasks, load_factor=workload.load_factor)
    return generate_scale_trace(config, rng=seed, pet=pet)


def timed(fn, *args):
    """``(fn(*args), wall seconds)``."""
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def make_simulator(workload: Workload, seed: int, pet):
    from repro.heuristics.registry import make_heuristic
    from repro.simulator.engine import HCSimulator, SimulatorConfig

    return HCSimulator(
        pet,
        make_heuristic(HEURISTIC, num_task_types=pet.num_task_types),
        config=SimulatorConfig(batch_window=workload.batch_window),
        rng=engine_seed(seed),
    )


def quantile(values, q: float) -> float:
    """Nearest-rank quantile ``q`` in [0, 1] of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
