"""Tests for the persistent incremental ``SystemState`` availability engine.

Three layers of guarantees:

* unit: incremental chain maintenance after every kind of queue mutation is
  bit-identical to a from-scratch rebuild (and to the pre-existing
  per-machine snapshot path);
* kernel: the lockstep rebuild path (ragged-batch convolve) matches the
  scalar chain step bit for bit;
* trial: seeded fig4-scale simulations with the incremental state produce
  bit-identical ``SimulationResult`` metrics to runs forced through the
  ``rebuild()`` cross-check mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.completion import ChainStep, DroppingPolicy, chain_step
from repro.core.pmf import DiscretePMF
from repro.heuristics.base import VirtualSystemState
from repro.heuristics.registry import make_heuristic
from repro.obs import Telemetry, use_telemetry
from repro.simulator.engine import HCSimulator, SimulatorConfig
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext, batch_in_arrival_order
from repro.simulator.state import SystemState, SystemStateError
from repro.simulator.task import Task
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.scale import ScaleTraceConfig, generate_scale_trace
from repro.workload.spec import TaskSpec


def make_task(task_id: int, *, task_type: int = 0, deadline: int = 500, arrival: int = 0) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


def pmf_equal(a: DiscretePMF, b: DiscretePMF) -> bool:
    """Bit-exact comparison (compacted, zero-mass PMFs compare equal)."""
    a, b = a.compact(), b.compact()
    if a.is_zero() and b.is_zero():
        return True
    return a.offset == b.offset and np.array_equal(a.probs, b.probs)


def reference_availability(machine: Machine, pet, now: int, **kwargs) -> DiscretePMF:
    """The pre-existing per-machine snapshot path (fresh machine clone)."""
    return machine.availability_pmf(pet, now, **kwargs)


@pytest.fixture
def machines() -> list[Machine]:
    return [
        Machine(0, "fast-a", queue_capacity=4),
        Machine(1, "fast-b", queue_capacity=4),
    ]


class TestIncrementalMaintenance:
    def test_empty_machines_available_now(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        assert state.availability(0, 42).probability_at(42) == pytest.approx(1.0)
        batch = state.availability_batch(7)
        assert batch.n_pmfs == 2
        assert batch.row(0).probability_at(7) == pytest.approx(1.0)

    def test_enqueue_extends_chain_incrementally(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        for i, deadline in enumerate((200, 240, 280)):
            task = make_task(i, deadline=deadline)
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
            got = state.availability(0, 0)
            want = reference_availability(m0, tiny_pet, 0)
            assert pmf_equal(got, want)
        assert len(state.chain(0, 0)) == 3

    def test_start_reanchors_head(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        task = make_task(0, deadline=300)
        m0.enqueue(task, now=0)
        state.notify_enqueue(0, task)
        state.availability(0, 0)
        m0.start_next(now=5, actual_execution_time=6)
        state.notify_start(0)
        got = state.availability(0, 5)
        want = reference_availability(m0, tiny_pet, 5)
        assert pmf_equal(got, want)

    def test_finish_drops_head_and_rebases(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        head, rest = make_task(0, deadline=300), make_task(1, deadline=400)
        for task in (head, rest):
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        m0.start_next(now=0, actual_execution_time=4)
        state.notify_start(0)
        state.availability(0, 0)
        m0.finish_executing(head, now=4)
        state.notify_finish(0, head)
        got = state.availability(0, 4)
        want = reference_availability(m0, tiny_pet, 4)
        assert pmf_equal(got, want)
        assert len(state.chain(0, 4)) == 1

    def test_remove_recomputes_suffix_only(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        tasks = [make_task(i, deadline=200 + 40 * i) for i in range(4)]
        for task in tasks:
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        prefix = state.chain(0, 0)[:2]
        m0.remove_pending(tasks[2])
        state.notify_remove(0, tasks[2])
        got = state.availability(0, 0)
        want = reference_availability(m0, tiny_pet, 0)
        assert pmf_equal(got, want)
        # The untouched prefix entries are reused, not recomputed.
        assert state.chain(0, 0)[0] is prefix[0]
        assert state.chain(0, 0)[1] is prefix[1]

    def test_unnotified_mutation_resyncs_defensively(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        task = make_task(0, deadline=200)
        m0.enqueue(task, now=0)  # no notification on purpose
        got = state.availability(0, 0)
        want = reference_availability(m0, tiny_pet, 0)
        assert pmf_equal(got, want)

    def test_overdue_executing_head_reanchors_with_now(self, tiny_pet, machines):
        """An executing task queried past its deadline: the EVICT collapse
        point ``max(deadline, now + 1)`` tracks the query time, so the
        chain must be re-anchored instead of served stale (cross-check mode
        would otherwise diverge from the rebuild path)."""
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        task = make_task(0, task_type=2, deadline=10)  # gamma: long execution
        m0.enqueue(task, now=0)
        state.notify_enqueue(0, task)
        m0.start_next(now=0, actual_execution_time=50)  # overruns the deadline
        state.notify_start(0)
        before = state.availability(0, 5)
        after = state.availability(0, 12)
        assert pmf_equal(before, reference_availability(m0, tiny_pet, 5))
        assert pmf_equal(after, reference_availability(m0, tiny_pet, 12))
        assert before.support()[1] == 10  # collapsed at the deadline
        assert after.support()[1] == 13  # collapse moved to max(10, 12 + 1)

    def test_idle_pending_chain_reanchors_with_now(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        task = make_task(0, deadline=300)
        m0.enqueue(task, now=0)
        state.notify_enqueue(0, task)
        at_zero = state.availability(0, 0)
        at_ten = state.availability(0, 10)
        assert pmf_equal(at_ten, reference_availability(m0, tiny_pet, 10))
        assert at_ten.mean() > at_zero.mean()

    def test_availability_excluding_reuses_prefix(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        tasks = [make_task(i, deadline=200 + 40 * i) for i in range(4)]
        for task in tasks:
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        got = state.availability_excluding(0, {tasks[2].task_id}, 0)
        context = MappingContext(
            now=0,
            batch=(),
            machines=tuple(machines),
            pet=tiny_pet,
            policy=DroppingPolicy.EVICT,
        )
        want = context.availability_excluding(0, {tasks[2].task_id})
        assert pmf_equal(got, want)

    def test_batch_rows_match_scalar_availability(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        for i, machine in enumerate(machines):
            task = make_task(i, task_type=i, deadline=250)
            machine.enqueue(task, now=0)
            state.notify_enqueue(machine.index, task)
        batch = state.availability_batch(0)
        for j, machine in enumerate(machines):
            assert pmf_equal(batch.row(j), reference_availability(machine, tiny_pet, 0))

    def test_rebuild_matches_incremental(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        for i in range(3):
            task = make_task(i, deadline=200 + 30 * i)
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        incremental = [p.compact() for p in state.chain(0, 0)]
        state.rebuild(0)
        rebuilt = [p.compact() for p in state.chain(0, 0)]
        assert len(incremental) == len(rebuilt)
        for a, b in zip(incremental, rebuilt):
            assert pmf_equal(a, b)

    def test_cross_check_detects_corruption(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        task = make_task(0, deadline=200)
        m0.enqueue(task, now=0)
        state.notify_enqueue(0, task)
        state.availability(0, 0)
        # Corrupt the cached chain behind the state's back.
        rec = state._records[0]
        rec.chain[-1] = rec.chain[-1].shift(3)
        rec.revision += 1
        with pytest.raises(SystemStateError):
            state.availability(0, 0)


class TestPruneMetaCrossCheck:
    def test_reused_meta_matches_from_scratch(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        for i, (task_type, deadline) in enumerate([(0, 12), (2, 18), (1, 30)]):
            task = make_task(i, task_type=task_type, deadline=deadline)
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        metas = state.prune_prefix_meta(0, 0)
        assert len(metas) == 3
        assert 0.0 < metas[1][0] < 1.0

    def test_cross_check_detects_corrupted_step(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        for i, (task_type, deadline) in enumerate([(0, 12), (2, 18)]):
            task = make_task(i, task_type=task_type, deadline=deadline)
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        state.availability(0, 0)
        rec = state._records[0]
        step = rec.steps[1]
        rec.steps[1] = ChainStep(step.out, step.conv.shift(3), step.pct)
        with pytest.raises(SystemStateError, match="pruning metadata"):
            state.prune_prefix_meta(0, 0)

    def test_rebuilt_chain_serves_meta_from_scratch(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        for i, (task_type, deadline) in enumerate([(0, 12), (2, 18), (1, 30)]):
            task = make_task(i, task_type=task_type, deadline=deadline)
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        incremental = state.prune_prefix_meta(0, 0)
        state.rebuild(0)
        assert state._records[0].steps == [None, None, None]
        assert state.prune_prefix_meta(0, 0) == incremental


def _busy_queue(machine: Machine, state: SystemState) -> tuple[Task, Task]:
    """Executing head plus one pending task, with the state notified."""
    head = make_task(100, task_type=0, deadline=300)
    machine.enqueue(head, now=0)
    state.notify_enqueue(machine.index, head)
    machine.start_next(now=0, actual_execution_time=5)
    state.notify_start(machine.index)
    pending = make_task(101, task_type=2, deadline=320)
    machine.enqueue(pending, now=0)
    state.notify_enqueue(machine.index, pending)
    return head, pending


def _context(machines, pet, state, **kwargs) -> MappingContext:
    return MappingContext(
        now=0,
        batch=(),
        machines=tuple(machines),
        pet=pet,
        policy=DroppingPolicy.EVICT,
        state=state,
        **kwargs,
    )


class TestPhase2HandOff:
    def test_adopted_on_identical_prev_and_task(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        _busy_queue(m0, state)
        virtual = VirtualSystemState(_context(machines, tiny_pet, state))
        first, second = make_task(0, deadline=340), make_task(1, deadline=380)
        virtual.assign(first, 0)
        virtual.assign(second, 0)
        assert len(state._records[0].handoffs) == 2
        tel = Telemetry()
        with use_telemetry(tel):
            for task in (first, second):
                m0.enqueue(task, now=0)
                state.notify_enqueue(0, task)
            got = state.availability(0, 0)
        assert got is virtual.availability(0)  # adopted, not recomputed
        assert tel.counters["state.chain_steps_handed_off"] == 2
        assert tel.counters["state.chain_steps"] == 0
        assert state._records[0].handoffs == []

    def test_refused_on_equal_but_distinct_prev(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        _busy_queue(machines[0], state)
        tail = state.availability(0, 0)
        clone = DiscretePMF._raw(tail.probs.copy(), tail.offset)
        task = make_task(0, deadline=340)
        step = chain_step(
            tiny_pet.get(0, 0), clone, task.deadline, state.policy, state.max_impulses
        )
        assert not state.hand_off(0, task, clone, step)
        assert state._records[0].handoffs == []

    def test_not_adopted_for_a_different_task(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        _busy_queue(m0, state)
        tail = state.availability(0, 0)
        twin, queued = make_task(0, deadline=340), make_task(0, deadline=340)
        step = chain_step(
            tiny_pet.get(0, 0), tail, twin.deadline, state.policy, state.max_impulses
        )
        assert state.hand_off(0, twin, tail, step)
        tel = Telemetry()
        with use_telemetry(tel):
            m0.enqueue(queued, now=0)
            state.notify_enqueue(0, queued)
            got = state.availability(0, 0)
        assert got is not step.out
        assert pmf_equal(got, step.out)
        assert tel.counters["state.chain_steps"] == 1
        assert tel.counters["state.chain_steps_handed_off"] == 0
        assert state._records[0].handoffs == []

    def test_not_adopted_after_the_chain_changed_ahead(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        _, pending = _busy_queue(m0, state)
        virtual = VirtualSystemState(_context(machines, tiny_pet, state))
        task = make_task(0, deadline=340)
        virtual.assign(task, 0)
        assert len(state._records[0].handoffs) == 1
        # The predecessor the step was taken on leaves before the enqueue.
        m0.remove_pending(pending)
        state.notify_remove(0, pending)
        m0.enqueue(task, now=0)
        state.notify_enqueue(0, task)
        got = state.availability(0, 0)
        assert got is not virtual.availability(0)
        assert pmf_equal(
            got,
            reference_availability(m0, tiny_pet, 0),
        )
        assert state._records[0].handoffs == []

    def test_refused_for_availability_excluding_base(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet, cross_check=True)
        m0 = machines[0]
        _, pending = _busy_queue(m0, state)
        behind = make_task(102, task_type=1, deadline=360)
        m0.enqueue(behind, now=0)
        state.notify_enqueue(0, behind)
        virtual = VirtualSystemState(
            _context(machines, tiny_pet, state), dropped_task_ids={pending.task_id}
        )
        task = make_task(0, deadline=380)
        virtual.assign(task, 0)
        assert state._records[0].handoffs == []
        m0.remove_pending(pending)
        state.notify_remove(0, pending)
        m0.enqueue(task, now=0)
        state.notify_enqueue(0, task)
        got = state.availability(0, 0)
        assert got is not virtual.availability(0)
        assert pmf_equal(got, virtual.availability(0))

    def test_refused_when_executing_is_conditioned_on_now(self, tiny_pet, machines):
        state = SystemState(
            machines, tiny_pet, condition_executing_on_now=True, cross_check=True
        )
        m0 = machines[0]
        _busy_queue(m0, state)
        virtual = VirtualSystemState(
            _context(machines, tiny_pet, state, condition_executing_on_now=True)
        )
        task = make_task(0, deadline=340)
        virtual.assign(task, 0)
        assert state._records[0].handoffs == []
        m0.enqueue(task, now=0)
        state.notify_enqueue(0, task)
        assert pmf_equal(state.availability(0, 0), virtual.availability(0))

    def test_not_offered_under_other_chain_settings(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        _busy_queue(machines[0], state)
        virtual = VirtualSystemState(
            _context(machines, tiny_pet, state, max_impulses=4)
        )
        virtual.assign(make_task(0, deadline=340), 0)
        assert state._records[0].handoffs == []

    def test_unapplied_decisions_keep_hand_offs_bounded(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        for machine in machines:
            _busy_queue(machine, state)
        batch = tuple(
            make_task(i, task_type=i % 3, deadline=400 + i) for i in range(12)
        )
        heuristic = make_heuristic("MM", num_task_types=tiny_pet.num_task_types)
        for _ in range(3):
            context = MappingContext(
                now=0,
                batch=batch,
                machines=tuple(machines),
                pet=tiny_pet,
                policy=DroppingPolicy.EVICT,
                state=state,
            )
            decision = heuristic.map_tasks(context)
            assert decision.assignments
            for machine, rec in zip(machines, state._records):
                assert len(rec.handoffs) <= machine.free_slots


class _HandOffBound:
    """Engine observer asserting the hand-off bound after every mapping event."""

    def __init__(self, sim: HCSimulator) -> None:
        self.sim = sim
        self.events = 0

    def on_assigned(self, task, machine_index, now) -> None:
        pass

    def on_terminal(self, task) -> None:
        pass

    def on_mapping_event(self, now, decision) -> None:
        self.events += 1
        for machine, rec in zip(self.sim.machines, self.sim.state._records):
            assert len(rec.handoffs) <= machine.queue_capacity


@pytest.mark.parametrize("batch_window", [0, 25])
def test_full_trial_hand_offs_adopted_and_bounded(spec_pet_small, batch_window):
    trace = generate_workload(
        WorkloadConfig(num_tasks=200, time_span=800, beta=1.2), spec_pet_small, rng=5
    )

    def run(telemetry):
        heuristic = make_heuristic("PAMF", num_task_types=spec_pet_small.num_task_types)
        sim = HCSimulator(
            spec_pet_small,
            heuristic,
            config=SimulatorConfig(state_cross_check=True, batch_window=batch_window),
            rng=17,
        )
        sim.observer = bound = _HandOffBound(sim)
        with use_telemetry(telemetry):
            result = sim.run(trace)
        assert bound.events > 0
        return result

    tel = Telemetry()
    traced = run(tel)
    assert tel.counters["state.chain_steps_handed_off"] > 0
    assert tel.counters["state.chain_steps"] > 0
    assert _signature(traced) == _signature(run(None))


class TestMappingContextViews:
    def test_context_serves_live_state(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        task = make_task(0, deadline=250)
        machines[0].enqueue(task, now=0)
        state.notify_enqueue(0, task)
        context = MappingContext(
            now=0,
            batch=batch_in_arrival_order(()),
            machines=tuple(machines),
            pet=tiny_pet,
            policy=DroppingPolicy.EVICT,
            state=state,
        )
        assert context.machine_availability(0) is state.availability(0, 0)
        assert context.availability_batch() is state.availability_batch(0)

    def test_fallback_matches_state_path(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        task = make_task(0, deadline=250)
        machines[0].enqueue(task, now=0)
        state.notify_enqueue(0, task)
        common = dict(
            now=0,
            batch=batch_in_arrival_order(()),
            machines=tuple(machines),
            pet=tiny_pet,
            policy=DroppingPolicy.EVICT,
        )
        with_state = MappingContext(state=state, **common)
        without_state = MappingContext(**common)
        for j in range(len(machines)):
            assert pmf_equal(
                with_state.machine_availability(j), without_state.machine_availability(j)
            )


def _signature(result):
    return (
        tuple(
            (t.task_id, t.status.value, t.machine, t.exec_start, t.exec_end, t.dropped_at)
            for t in result.tasks
        ),
        result.counters.as_dict(),
        result.machine_busy_times,
        result.end_time,
    )


@pytest.mark.parametrize("batch_window", [0, 25])
@pytest.mark.parametrize("heuristic_name", ["MM", "PAM", "PAMF"])
def test_full_trial_incremental_vs_rebuild_cross_check(
    spec_pet_small, heuristic_name, batch_window
):
    """Seeded fig4-scale trials: incremental state vs forced rebuild cross-check.

    The cross-check run re-derives every queried chain from scratch through
    the lockstep rebuild kernel and raises on any bit-level divergence; on
    top of that the trial-level metrics must be bit-identical to the plain
    incremental run.  Runs in both engine modes: per-event (``window=0``)
    and batched scheduling rounds.
    """
    trace = generate_workload(
        WorkloadConfig(num_tasks=250, time_span=1000, beta=1.2), spec_pet_small, rng=5
    )

    def run(config):
        heuristic = make_heuristic(
            heuristic_name, num_task_types=spec_pet_small.num_task_types
        )
        sim = HCSimulator(spec_pet_small, heuristic, config=config, rng=17)
        return sim.run(trace)

    incremental = run(SimulatorConfig(batch_window=batch_window))
    crosschecked = run(
        SimulatorConfig(state_cross_check=True, batch_window=batch_window)
    )
    assert _signature(incremental) == _signature(crosschecked)
    assert incremental.robustness_percent(warmup=20, cooldown=20) == crosschecked.robustness_percent(
        warmup=20, cooldown=20
    )


def test_full_trial_pending_policy_cross_check(spec_pet_small):
    """The PENDING dropping regime flows through the same equivalence gate."""
    trace = generate_workload(
        WorkloadConfig(num_tasks=150, time_span=800, beta=1.5), spec_pet_small, rng=9
    )

    def run(cross_check):
        heuristic = make_heuristic("PAM", num_task_types=spec_pet_small.num_task_types)
        config = SimulatorConfig(
            evict_executing_at_deadline=False, state_cross_check=cross_check
        )
        return HCSimulator(spec_pet_small, heuristic, config=config, rng=3).run(trace)

    assert _signature(run(False)) == _signature(run(True))


@pytest.fixture(scope="module")
def spec_pet_small():
    from repro.pet.builders import build_spec_pet

    return build_spec_pet(rng=1, n_samples=120)


def test_oversubscribed_batched_pamf_meta_cross_check(spec_pet_small, monkeypatch):
    """Oversubscribed PAMF rounds: every reused pruning pair is re-derived.

    Under ``state_cross_check`` each ``(success_probability, skewness)`` pair
    the pruner reads off a kept chain step is checked bit for bit against a
    from-scratch convolution; the trial must also match the unchecked run.
    """
    trace = generate_scale_trace(
        ScaleTraceConfig(num_tasks=300, load_factor=2.0), rng=23, pet=spec_pet_small
    )
    checks = []
    from_scratch = SystemState._meta_from_scratch

    def counted(self, *args):
        checks.append(args[2])
        return from_scratch(self, *args)

    def run(cross_check):
        heuristic = make_heuristic("PAMF", num_task_types=spec_pet_small.num_task_types)
        config = SimulatorConfig(state_cross_check=cross_check, batch_window=120)
        return HCSimulator(spec_pet_small, heuristic, config=config, rng=29).run(trace)

    plain = run(False)
    monkeypatch.setattr(SystemState, "_meta_from_scratch", counted)
    checked = run(True)
    assert _signature(plain) == _signature(checked)
    assert checked.counters.proactive_drops > 0
    assert len(checks) > 0
