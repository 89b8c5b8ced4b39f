"""Offline workloads: ``HCSimulator.run`` over a generated scale trace."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from statistics import mean, median

from calibrate import SpeedMeter
from common import (
    BENCH_DIR,
    RUN_DIR,
    build_pet,
    build_trace,
    input_seeds,
    make_simulator,
    peak_rss_mb,
    quantile,
    timed,
)

#: Set-up is measured in fresh processes (imports cannot be repeated in one).
SETUP_PROBES = 5
#: Every input runs at least this many times, however short ``--seconds``:
#: a per-event median over three repeats drops a burst of host slowness
#: that hit one of them; over two it only halves it.
MIN_ROUNDS = 3


class DecisionClock:
    """Engine observer: program-clock stamp of every mapping event, terminal count per task.

    After each stamp it gives the speed meter its chance to sample, so the
    samples follow the trial's time profile and stay out of every stamp gap.
    """

    def __init__(self, meter: SpeedMeter) -> None:
        self.meter = meter
        self.stamps: list[float] = []
        self.terminals: dict[int, int] = {}

    def on_assigned(self, task, machine_index, now) -> None:
        pass

    def on_terminal(self, task) -> None:
        self.terminals[task.task_id] = self.terminals.get(task.task_id, 0) + 1

    def on_mapping_event(self, now, decision) -> None:
        self.stamps.append(self.meter.program_clock())
        self.meter.tick()


def terminal_failures(trace, result, clock: DecisionClock) -> int:
    """Tasks that did not reach exactly one terminal state (plus 1 if counters disagree)."""
    from repro.simulator.task import TaskStatus

    terminal = (TaskStatus.COMPLETED, TaskStatus.DROPPED)
    status = {task.task_id: task.status for task in result.tasks}
    failed = sum(
        status.get(spec.task_id) not in terminal or clock.terminals.get(spec.task_id) != 1
        for spec in trace
    )
    counters = result.counters
    accounted = (
        counters.completions
        + counters.evictions
        + counters.deadline_miss_drops
        + counters.proactive_drops
    )
    return failed + (len(status) != len(trace) or accounted != len(trace))


def setup_probe(workload, seed: int, num_tasks: int) -> float:
    """Imports + PET + trace + simulator construction, in this (fresh) process.

    Wall seconds, not reference-speed ones: a few speed samples at process
    start varied more (0.6-1.4x) than the set-up itself did.
    """
    start = time.perf_counter()
    import repro.heuristics.registry  # noqa: F401
    import repro.simulator.engine  # noqa: F401
    import repro.workload.scale  # noqa: F401

    pet = build_pet(seed)
    build_trace(workload, seed, num_tasks, pet)
    make_simulator(workload, seed, pet)
    return time.perf_counter() - start


def _setup_seconds(workload, seed: int, num_tasks: int) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed), "--tasks", str(num_tasks)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return median(samples)


def _trial(workload, seed: int, pet, trace, meter: SpeedMeter):
    """One untraced ``run`` of one input.

    Returns the result, the failed-task count, the run's reference-speed
    seconds and the reference-speed milliseconds of each mapping-event gap.
    """
    sim = make_simulator(workload, seed, pet)
    clock = DecisionClock(meter)
    sim.observer = clock
    mark = meter.mark()
    meter.take()
    start = meter.program_clock()
    result = sim.run(trace)
    elapsed = meter.program_clock() - start
    meter.take()
    scale = meter.scale_since(mark)
    gaps_ms = []
    previous = start
    for stamp in clock.stamps:
        gaps_ms.append((stamp - previous) * scale * 1e3)
        previous = stamp
    return result, terminal_failures(trace, result, clock), elapsed * scale, gaps_ms


def measure(workload, seed: int, seconds: float, num_tasks: int) -> tuple[int, int, dict]:
    """Untraced rounds for ``seconds``: ``(attempted, failed, metrics)``.

    A round runs each of the run's inputs (``input_seeds``) once.  Rounds
    repeat while at least half a round's time is left, and at least
    ``MIN_ROUNDS`` times.  Times are in reference-speed seconds
    (``calibrate.py``).
    """
    setup_s = _setup_seconds(workload, seed, num_tasks)
    inputs = []
    for s in input_seeds(seed):
        pet = build_pet(s)
        inputs.append((s, pet, build_trace(workload, s, num_tasks, pet)))
    walls: list[list[float]] = [[] for _ in inputs]
    gaps: list[list[list[float]]] = [[] for _ in inputs]
    results = [None] * len(inputs)
    attempted = failed = rounds = 0
    round_s = 0.0
    meter = SpeedMeter()
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s / 2 < deadline:
        round_start = time.perf_counter()
        for k, (s, pet, trace) in enumerate(inputs):
            results[k], bad, wall, trial_gaps = _trial(workload, s, pet, trace, meter)
            walls[k].append(wall)
            gaps[k].append(trial_gaps)
            attempted += len(trace)
            failed += bad
        round_s = time.perf_counter() - round_start
        rounds += 1
    # Every round repeats the same mapping events of an input, so an event's
    # time is its median over the rounds: a burst of machine slowness that
    # hit one repeat does not reach the tail.
    event_ms = [median(repeats) for per_input in gaps for repeats in zip(*per_input)]
    tasks = sum(len(trace) for _, _, trace in inputs)
    metrics = {
        "tasks_per_s": tasks / sum(median(w) for w in walls),
        "sustained_tasks_per_s": attempted / sum(map(sum, walls)),
        "p50_ms": quantile(event_ms, 0.50),
        "p99_ms": quantile(event_ms, 0.99),
        "robustness_pct": mean(r.robustness_percent() for r in results),
        "cost_per_pct_on_time": mean(r.cost_per_percent_on_time() for r in results),
        "ok_frac": 1.0 - failed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return attempted, failed, metrics


def _signature(result) -> tuple:
    return tuple(
        (t.task_id, t.status.value, t.machine, t.mapped_at, t.exec_start, t.exec_end,
         t.drop_reason)
        for t in result.tasks
    )


def measure_traced(workload, seed: int, num_tasks: int) -> tuple[int, int, dict]:
    """One untraced and one traced trial of the same inputs: per-layer metrics."""
    from tracing import Tracer

    pet, pet_s = timed(build_pet, seed)
    trace, trace_s = timed(build_trace, workload, seed, num_tasks, pet)
    untraced, untraced_s = timed(make_simulator(workload, seed, pet).run, trace)
    tracer = Tracer()
    sim = make_simulator(workload, seed, pet)
    with tracer.installed():
        traced, traced_s = timed(sim.run, trace)
    tracer.write(RUN_DIR / f"spans-{workload.name}.json")

    failed = sum(a != b for a, b in zip(_signature(untraced), _signature(traced)))
    failed += len(untraced.tasks) != len(traced.tasks)
    failed += untraced.counters.as_dict() != traced.counters.as_dict()
    layers = tracer.layer_stats()
    counters = traced.counters
    metrics = layer_metrics(layers, tracer.counts, counters)
    metrics.update(SERVE_ONLY_LAYER_METRICS)
    metrics.update({
        "workload.build_s": trace_s,
        "pet.build_s": pet_s,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
        "trace.wall_s": traced_s,
        "trace.self_coverage_pct": 100.0
        * sum(entry["self_s"] for entry in layers.values()) / traced_s,
    })
    return 2 * len(trace), failed, metrics


#: Serve-side layers an offline run never enters read 0.
SERVE_ONLY_LAYER_METRICS = {
    "serve.accept_rtt_p50_ms": 0.0,
    "serve.accept_rtt_p99_ms": 0.0,
    "serve.admission_p50_ms": 0.0,
    "serve.admission_p99_ms": 0.0,
    "serve.decisions": 0,
    "loadgen.late_p99_ms": 0.0,
    "loadgen.late_max_ms": 0.0,
    "serve.first_decision_p50_ms": 0.0,
    "serve.first_decision_p99_ms": 0.0,
}


def layer_metrics(layers: dict, counts: dict, counters) -> dict:
    """The per-layer metrics derived from spans and engine counters."""

    def stat(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    walks = stat("pruner.prune_machine_queue", "calls")
    pairs = counts.get("score_table.pairs_scored", 0)
    return {
        "engine.self_s": stat("engine", "self_s"),
        "engine.mapping_events": counters.mapping_events,
        "engine.tasks_per_mapping_event": counters.assignments / max(counters.mapping_events, 1),
        "engine.deferrals": counters.deferrals,
        "engine.proactive_drops": counters.proactive_drops,
        "heuristics.map_tasks.self_s": stat("heuristics.map_tasks", "self_s"),
        "virtual.fork.calls": stat("virtual.fork", "calls"),
        "virtual.fork.total_s": stat("virtual.fork", "total_s"),
        "virtual.fork.self_s": stat("virtual.fork", "self_s"),
        "virtual.assign.calls": stat("virtual.assign", "calls"),
        "virtual.assign.total_s": stat("virtual.assign", "total_s"),
        "score_table.fill.calls": stat("score_table.fill", "calls"),
        "score_table.fill.total_s": stat("score_table.fill", "total_s"),
        "score_table.fill.self_s": stat("score_table.fill", "self_s"),
        "score_table.best_pairs.calls": stat("score_table.best_pairs", "calls"),
        "score_table.best_pairs.total_s": stat("score_table.best_pairs", "total_s"),
        "score_table.pairs_scored": pairs,
        "score_table.useful_ratio": counters.assignments / pairs if pairs else 0.0,
        "pruner.select_queue_drops.calls": stat("pruner.select_queue_drops", "calls"),
        "pruner.prune_machine_queue.calls": walks,
        "pruner.prune_machine_queue.total_s": stat("pruner.prune_machine_queue", "total_s"),
        "pruner.prune_machine_queue.self_s": stat("pruner.prune_machine_queue", "self_s"),
        "state.prune_prefix_meta.calls": stat("state.prune_prefix_meta", "calls"),
        "state.prune_prefix_meta.self_s": stat("state.prune_prefix_meta", "self_s"),
        "pruner.drop_ratio": counters.proactive_drops / walks if walks else 0.0,
        "state.availability.calls": stat("state.availability", "calls"),
        "state.availability.total_s": stat("state.availability", "total_s"),
        "state.availability.self_s": stat("state.availability", "self_s"),
        "state.availability_excluding.calls": stat("state.availability_excluding", "calls"),
        "state.availability_excluding.total_s": stat("state.availability_excluding", "total_s"),
        "completion.chain_step.calls": stat("completion.chain_step", "calls"),
        "completion.chain_step.self_s": stat("completion.chain_step", "self_s"),
        "pmf.convolve.calls": stat("pmf.convolve", "calls"),
        "pmf.convolve.self_s": stat("pmf.convolve", "self_s"),
        "kernels.success_probability.calls": stat("kernels.success_probability", "calls"),
        "kernels.success_probability.self_s": stat("kernels.success_probability", "self_s"),
        "serve.core_submit.calls": stat("serve.core_submit", "calls"),
        "serve.core_submit.self_s": stat("serve.core_submit", "self_s"),
    }
