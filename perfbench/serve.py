"""The serve-open workload: open-loop replay into a hosted ``SchedulerService``.

Phase 1 offers ``LATENCY_RATE`` tasks/s for client-side latency; phase 2
offers ``SATURATION_RATE`` tasks/s to a fresh service whose inbox holds the
whole trace, so overload shows as backlog and the decision rate is the
sustained throughput.  Phase 2 also gives the per-request service times.
Every stream must equal the offline run's decisions.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median

from calibrate import scale_for
from common import (
    BENCH_DIR,
    ROOT,
    RUN_DIR,
    WORKLOADS,
    build_pet,
    build_trace,
    input_seeds,
    make_simulator,
    quantile,
    timed,
)
from loadgen import PhaseOutcome, open_loop

#: Phase-1 rate.  At 200/s the service ran at 40% of its capacity, and a
#: stretch of host slowness pushed it near saturation: p50 jumped from 9 ms
#: to 15 ms in one run of three.  100/s leaves room for a 2x slowdown.
LATENCY_RATE = 100.0
#: Phase-2 rate, about four times what the service decides.  At 800/s a fast
#: stretch of the host let it keep up (777 decided/s), so the offered rate,
#: not the service, set the figure.
SATURATION_RATE = 2000.0
START_TIMEOUT_S = 60.0
#: Saturation phases per untraced run, each on a fresh service and its own
#: input (the first ``SATURATION_RUNS`` of ``input_seeds``): sustained
#: throughput varies by up to 10% between inputs.  ``setup_s`` is the median
#: of all service starts.
SATURATION_RUNS = 3


@dataclass
class Phase:
    outcome: PhaseOutcome
    #: Service spawn -> socket accepts, wall seconds.
    setup_s: float
    report: dict

    def reference_span(self) -> float:
        """First send -> last first decision, in reference-speed seconds.

        For a saturated phase: the service is the bottleneck for the whole
        span, so the time it spent on speed samples is taken out of the
        client-side span before scaling (see ``calibrate.py``).
        """
        samples, sampled_s = self.report["speed"]
        span = max(self.outcome.decided()) - self.outcome.sent[0] - sampled_s
        return span * scale_for(samples, sampled_s)


async def _connect(path: str, proc: subprocess.Popen):
    deadline = time.perf_counter() + START_TIMEOUT_S
    while True:
        try:
            return await asyncio.open_unix_connection(path, limit=1 << 22)
        except (FileNotFoundError, ConnectionRefusedError):
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"service did not start (exit {proc.poll()})") from None
            await asyncio.sleep(0.002)


async def _run_service(
    seed, specs, rate, *, inbox_limit=None, trace=False, calibrate=False
) -> Phase:
    """Start a service and drive one open-loop phase against it."""
    RUN_DIR.mkdir(exist_ok=True)
    sock = os.path.relpath(RUN_DIR / f"serve-{os.getpid()}.sock", ROOT)
    report_path = RUN_DIR / f"serve-{os.getpid()}.report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "serve_host.py"), "--listen", sock,
           "--seed", str(seed), "--trace", str(int(trace)), "--report", str(report_path),
           "--calibrate", str(int(calibrate))]
    if inbox_limit is not None:
        cmd += ["--inbox-limit", str(inbox_limit)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        reader, writer = await _connect(sock, proc)
        setup_s = time.perf_counter() - start
        timeout = 60.0 + 4.0 * len(specs) / rate
        outcome = await open_loop(reader, writer, specs, rate, timeout)
        writer.close()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    report_path.unlink(missing_ok=True)
    return Phase(outcome, setup_s, report)


def _phase_failures(phase: Phase, offline_map: dict) -> int:
    """Rejected, errored or undecided submissions, plus tasks whose outcome differs."""
    from repro.serve.service import decision_map

    out = phase.outcome
    if out.closed is None or not phase.report or phase.report["failure"]:
        return len(offline_map)
    streamed = decision_map(out.decisions)
    mismatched = sum(streamed.get(task_id) != value for task_id, value in offline_map.items())
    return out.rejected + len(out.errors) + out.undecided() + mismatched


def _inputs(seed: int, num_tasks: int | None, seconds: float):
    """Trace specs, offline result, PET and trace build seconds of one input."""
    workload = WORKLOADS["serve-open"]
    pet, pet_s = timed(build_pet, seed)
    n = num_tasks or int(LATENCY_RATE * seconds)
    trace, trace_s = timed(build_trace, workload, seed, n, pet)
    offline = make_simulator(workload, seed, pet).run(trace)
    return list(trace), offline, pet_s, trace_s


def measure(seed: int, seconds: float, num_tasks: int | None) -> tuple[int, int, dict]:
    from repro.serve.service import offline_decision_map

    inputs = []
    for s in input_seeds(seed)[:SATURATION_RUNS]:
        specs, offline, _, _ = _inputs(s, num_tasks, seconds)
        inputs.append((s, specs, offline_decision_map(offline)))
    _, specs, offline_map = inputs[0]
    latency = asyncio.run(_run_service(seed, specs, LATENCY_RATE))
    failed = _phase_failures(latency, offline_map)
    saturated = []
    for s, specs, offline_map in inputs:
        phase = asyncio.run(_run_service(
            s, specs, SATURATION_RATE, inbox_limit=len(specs) + 16, calibrate=True
        ))
        bad = _phase_failures(phase, offline_map)
        failed += bad
        if not bad:
            saturated.append(phase)
    phases = [latency, *saturated]
    attempted = (1 + len(inputs)) * len(specs)
    summary = latency.outcome.closed["summary"] if latency.outcome.closed else {}
    decided = sum(len(p.outcome.decided()) for p in saturated)
    service_ms = [ms for p in saturated for ms in p.report["service_ms"]]
    metrics = {
        "tasks_per_s": latency.outcome.throughput(),
        "sustained_tasks_per_s": decided / sum(p.reference_span() for p in saturated)
        if saturated else 0.0,
        "p50_ms": quantile(service_ms, 0.50) if service_ms else 0.0,
        "p99_ms": quantile(service_ms, 0.99) if service_ms else 0.0,
        "robustness_pct": summary.get("robustness_percent", 0.0),
        "cost_per_pct_on_time": summary.get("cost_per_percent_on_time", 0.0),
        "ok_frac": 1.0 - failed / attempted,
        "setup_s": median(p.setup_s for p in phases),
        "peak_rss_mb": max(p.report.get("peak_rss_mb", 0.0) for p in phases),
    }
    return attempted, failed, metrics


def measure_traced(seed: int, seconds: float, num_tasks: int | None) -> tuple[int, int, dict]:
    """Untraced phases 1 and 2, then phase 2 against a traced service."""
    from offline import layer_metrics
    from repro.serve.service import offline_decision_map
    from repro.simulator.metrics import SimulationCounters

    specs, offline, pet_s, trace_s = _inputs(seed, num_tasks, seconds)
    offline_map = offline_decision_map(offline)
    limit = len(specs) + 16
    latency = asyncio.run(_run_service(seed, specs, LATENCY_RATE))
    untraced = asyncio.run(_run_service(seed, specs, SATURATION_RATE, inbox_limit=limit))
    traced = asyncio.run(
        _run_service(seed, specs, SATURATION_RATE, inbox_limit=limit, trace=True)
    )
    phases = (latency, untraced, traced)
    failed = sum(_phase_failures(p, offline_map) for p in phases)

    out = latency.outcome
    accept_ms = [(a - s) * 1e3 for a, s in zip(out.accepted, out.sent) if a is not None]
    late_ms = [(s - d) * 1e3 for s, d in zip(out.sent, out.due)]
    closed = traced.outcome.closed or {}
    summary = closed.get("summary", {})
    counters = SimulationCounters(**{
        key: int(summary.get(key, 0)) for key in SimulationCounters().as_dict()
    })
    admission = (latency.outcome.closed or {}).get("metrics", {}).get("admission_latency", {})
    layers = traced.report.get("layers") or {}
    traced_wall = max(traced.outcome.decided()) - traced.outcome.sent[0]
    untraced_wall = max(untraced.outcome.decided()) - untraced.outcome.sent[0]
    metrics = layer_metrics(layers, traced.report.get("counts") or {}, counters)
    metrics.update({
        "workload.build_s": trace_s,
        "pet.build_s": pet_s,
        "serve.accept_rtt_p50_ms": quantile(accept_ms, 0.50),
        "serve.accept_rtt_p99_ms": quantile(accept_ms, 0.99),
        "serve.admission_p50_ms": admission.get("p50_s", 0.0) * 1e3,
        "serve.admission_p99_ms": admission.get("p99_s", 0.0) * 1e3,
        "serve.decisions": closed.get("metrics", {}).get("decisions", 0),
        "loadgen.late_p99_ms": quantile(late_ms, 0.99),
        "loadgen.late_max_ms": max(late_ms),
        "serve.first_decision_p50_ms": quantile(out.first_decision_ms(), 0.50),
        "serve.first_decision_p99_ms": quantile(out.first_decision_ms(), 0.99),
        "trace.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
        "trace.wall_s": traced_wall,
        "trace.self_coverage_pct": 100.0
        * sum(entry["self_s"] for entry in layers.values()) / traced_wall,
    })
    return len(phases) * len(specs), failed, metrics
