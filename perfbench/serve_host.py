"""Host one single-process ``SchedulerService`` for the serve-open workload.

Run as its own process so the service owns a core, as under ``repro serve
run``.  It serves until a client sends ``close``, then writes a JSON report
(peak RSS, any admission-loop failure, the machine-speed samples, and with
``--trace 1`` the per-layer span statistics) to ``--report``.

With ``--calibrate 1`` a speed meter (see ``calibrate.py``) gets a chance
to sample after every ``SchedulerCore.submit``, and the report lists each
submit's service time in reference-speed milliseconds.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
from pathlib import Path

from calibrate import SpeedMeter, local_scale
from common import HEURISTIC, RUN_DIR, bootstrap, build_pet, engine_seed, peak_rss_mb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--listen", required=True, help="unix socket path")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inbox-limit", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    bootstrap()
    from repro.heuristics.registry import make_heuristic
    from repro.serve.service import SchedulerCore, SchedulerService

    pet = build_pet(args.seed)
    core = SchedulerCore(
        pet,
        make_heuristic(HEURISTIC, num_task_types=pet.num_task_types),
        rng=engine_seed(args.seed),
    )
    meter = SpeedMeter()
    #: Per submit: program seconds spent in it, samples taken before it.
    submits: list[tuple[float, int]] = []
    if args.calibrate:
        submit = core.submit

        def metered_submit(spec, **kwargs):
            before = meter.samples
            start = meter.program_clock()
            decisions = submit(spec, **kwargs)
            submits.append((meter.program_clock() - start, before))
            meter.tick()
            return decisions

        core.submit = metered_submit
    kwargs = {} if args.inbox_limit is None else {"inbox_limit": args.inbox_limit}
    service = SchedulerService(core, args.listen, **kwargs)

    async def serve() -> None:
        await service.start()
        await service.wait_stopped()

    tracer = None
    scope = contextlib.nullcontext()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        scope = tracer.installed()
    with scope:
        asyncio.run(serve())

    report = {
        "peak_rss_mb": peak_rss_mb(),
        "failure": None if service.failure is None else repr(service.failure),
        "speed": [meter.samples, meter.sampled_s],
        "service_ms": [
            seconds * 1e3 * local_scale(meter.history, k) for seconds, k in submits
        ],
        "layers": tracer.layer_stats() if tracer else None,
        "counts": dict(tracer.counts) if tracer else None,
    }
    if tracer:
        tracer.write(RUN_DIR / "spans-serve-open.json")
    path = Path(args.report)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(report))
    os.replace(tmp, path)
    return 0 if service.failure is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
