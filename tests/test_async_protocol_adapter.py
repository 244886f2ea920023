"""Tests for the tick-interface variant of the asynchronous protocol,
including bit-identity of the block kernel against the per-tick
reference loop and cross-validation against the optimised runner."""

import numpy as np
import pytest

from repro.core.colors import ColorConfiguration
from repro.engine.continuous import ContinuousEngine
from repro.engine.delays import ExponentialDelay
from repro.engine.sequential import SequentialEngine
from repro.graphs.complete import CompleteGraph
from repro.graphs.sparse import ring
from repro.graphs.topology import Topology
from repro.protocols.async_plurality import (
    AsyncPluralityConsensus,
    AsyncPluralityProtocol,
    schedule_budget,
)
from repro.protocols.lossy import LossyProtocol
from repro.protocols.schedule import (
    ACTION_BP,
    ACTION_NOP,
    ACTION_SYNC_JUMP,
    ACTION_SYNC_SAMPLE,
    ACTION_TC_COMMIT,
    ACTION_TC_SAMPLE,
)
from repro.workloads.initial import multiplicative_bias


class TestAdapterMechanics:
    def test_make_state_attaches_schedule(self):
        protocol = AsyncPluralityProtocol()
        state = protocol.make_state(np.array([0, 1, 0, 1]), k=2)
        assert state.schedule.n == 4
        assert len(state.buffers) == 4

    def test_tick_targets_for_tc_sample(self, rng):
        protocol = AsyncPluralityProtocol()
        graph = CompleteGraph(10)
        state = protocol.make_state(np.zeros(10, dtype=np.int64), k=2)
        # working time 0 is the first phase's TC sample slot
        assert state.schedule.action_at(0) == ACTION_TC_SAMPLE
        targets = protocol.tick_targets(state, 3, graph, rng)
        assert len(targets) == 2

    def test_tick_apply_advances_clocks(self, rng):
        protocol = AsyncPluralityProtocol()
        graph = CompleteGraph(10)
        state = protocol.make_state(np.zeros(10, dtype=np.int64), k=2)
        targets = protocol.tick_targets(state, 0, graph, rng)
        protocol.tick_apply(state, 0, state.colors[targets])
        assert state.working_time[0] == 1
        assert state.real_time[0] == 1

    def test_unanimous_tc_sets_intermediate_then_commit_sets_bit(self, rng):
        protocol = AsyncPluralityProtocol()
        graph = CompleteGraph(10)
        state = protocol.make_state(np.zeros(10, dtype=np.int64), k=2)
        node = 0
        # drive node 0 through the schedule until just past the commit slot
        commit_slot = 2 * state.schedule.delta
        for _ in range(commit_slot + 1):
            targets = protocol.tick_targets(state, node, graph, rng)
            observed = state.colors[targets] if len(targets) else np.empty(0, dtype=np.int64)
            protocol.tick_apply(state, node, observed)
        assert state.bit[node]  # unanimous population: samples always agree

    def test_terminated_node_ignores_ticks(self, rng):
        protocol = AsyncPluralityProtocol()
        graph = CompleteGraph(10)
        state = protocol.make_state(np.zeros(10, dtype=np.int64), k=2)
        state.terminated[0] = True
        targets = protocol.tick_targets(state, 0, graph, rng)
        assert len(targets) == 0
        protocol.tick_apply(state, 0, np.empty(0, dtype=np.int64))
        assert state.working_time[0] == 0

    def test_is_absorbed_when_all_terminated(self):
        protocol = AsyncPluralityProtocol()
        state = protocol.make_state(np.zeros(4, dtype=np.int64), k=2)
        assert not protocol.is_absorbed(state)
        state.terminated[:] = True
        assert protocol.is_absorbed(state)


class TestAdapterRuns:
    def test_sequential_engine_run_converges(self):
        n = 200
        config = multiplicative_bias(n, 4, 2.0)
        protocol = AsyncPluralityProtocol()
        engine = SequentialEngine(protocol, CompleteGraph(n))
        schedule = protocol.params.compile(n)
        result = engine.run(config, seed=5, max_ticks=3 * n * schedule.total_length)
        assert result.converged
        assert result.winner == 0

    def test_continuous_engine_with_delays_converges(self):
        n = 150
        config = multiplicative_bias(n, 4, 2.0)
        protocol = AsyncPluralityProtocol()
        engine = ContinuousEngine(protocol, CompleteGraph(n), delay_model=ExponentialDelay(2.0))
        schedule = protocol.params.compile(n)
        result = engine.run(config, seed=6, max_time=5.0 * schedule.total_length)
        assert result.converged
        assert result.winner == 0


class _ReplayTopology(Topology):
    """Serves the presampled ``(B, 2)`` target matrix to the reference
    loop: ``sample_neighbors(node, count)`` returns the first *count*
    entries of the current tick's row."""

    def __init__(self, n, targets):
        self.n = n
        self.targets = targets
        self.row = 0

    def sample_neighbor(self, node, rng):
        return int(self.targets[self.row, 0])

    def sample_neighbors(self, node, count, rng):
        return self.targets[self.row, :count]

    def degree(self, node):
        return self.n - 1


def _tick_case(state, node):
    """Which branch of the tick rule *node* takes in *state*."""
    schedule = state.schedule
    if state.terminated[node]:
        return "terminated"
    w = int(state.working_time[node])
    if w >= schedule.part_one_length:
        return "termination" if w + 1 >= schedule.total_length else "endgame"
    action = schedule.action_at(w)
    if action == ACTION_BP:
        return "bp-bit-set" if state.bit[node] else "bp"
    if action == ACTION_SYNC_JUMP:
        buffer = state.buffers[node]
        if not buffer.offsets:
            return "jump-empty"
        return "jump" if buffer.phase == schedule.phase_of(w) else "jump-stale"
    return {
        ACTION_NOP: "nop",
        ACTION_TC_SAMPLE: "tc-sample",
        ACTION_TC_COMMIT: "tc-commit",
        ACTION_SYNC_SAMPLE: "sync-sample",
    }[action]


def _reference_block(protocol, state, nodes, targets, cases):
    """Run ``seq_tick_batch_loop`` on *targets* through a replay topology."""
    replay = _ReplayTopology(state.n, targets)

    def ticks():
        for i, node in enumerate(nodes):
            replay.row = i
            cases.add(_tick_case(state, int(node)))
            yield node

    protocol.seq_tick_batch_loop(state, ticks(), replay, None)


def _assert_same_state(state, reference):
    for name in ("colors", "working_time", "real_time", "bit", "intermediate", "terminated"):
        np.testing.assert_array_equal(getattr(state, name), getattr(reference, name), err_msg=name)
    assert state.buffers == reference.buffers


class _CheckedProtocol(AsyncPluralityProtocol):
    """Applies every engine block through the kernel and, on a copy of
    the state, through the reference loop on the same draws; asserts
    both leave identical states."""

    def __init__(self):
        super().__init__()
        self.cases = set()

    def seq_tick_batch(self, state, nodes, topology, rng):
        nodes = np.asarray(nodes, dtype=np.int64)
        targets = topology.sample_neighbors_block(nodes, 2, rng)
        reference = state.copy()
        _reference_block(self, reference, nodes, targets, self.cases)
        self.apply_block(state, nodes, targets)
        _assert_same_state(state, reference)


def _never(counts):
    return False


class TestBlockKernelBitIdentity:
    ALL_CASES = {
        "nop", "tc-sample", "tc-commit", "bp", "bp-bit-set", "sync-sample",
        "jump", "jump-empty", "jump-stale", "endgame", "termination", "terminated",
    }

    def test_every_branch_on_a_crafted_block(self, rng):
        protocol = AsyncPluralityProtocol()
        n = 14
        state = protocol.make_state(rng.integers(0, 3, size=n), k=3)
        schedule = state.schedule
        start, sync = schedule.phase_starts[1], schedule.sync_starts[1]
        jump = schedule.jump_slots[1]
        slots = [
            start,                             # 0: TC sample
            start + 2 * schedule.delta,        # 1: TC commit, colour pre-committed
            start + 2 * schedule.delta,        # 2: TC commit, samples disagreed
            start + 4 * schedule.delta,        # 3: BP, bit unset
            start + 4 * schedule.delta,        # 4: BP, bit already set
            sync,                              # 5: Sync sample
            jump,                              # 6: jump, buffer of this phase
            jump,                              # 7: jump, empty buffer
            jump,                              # 8: jump, stale-phase buffer
            schedule.total_length - 1,         # 9: endgame, terminates
            schedule.part_one_length,          # 10: endgame
            schedule.total_length,             # 11: already terminated
            start + 1,                         # 12: do-nothing slot
            start + 4 * schedule.delta,        # 13: BP target with the bit set
        ]
        state.working_time[:] = slots
        state.real_time[:] = np.array(slots) + rng.integers(0, 5, size=n)
        state.intermediate[1] = (state.colors[1] + 1) % 3
        state.bit[[4, 13]] = True
        state.terminated[11] = True
        state.buffers[6].collect(1, 50, 10)
        state.buffers[6].collect(1, 70, 12)
        state.buffers[8].collect(0, 40, 10)
        nodes = np.concatenate([np.arange(n), rng.permutation(n), rng.permutation(n)])
        targets = rng.integers(0, n, size=(nodes.size, 2))
        targets[:n, 0] = 13  # first-pass BP reads a bit-holder
        reference = state.copy()
        cases = set()
        _reference_block(protocol, reference, nodes, targets, cases)
        protocol.apply_block(state, nodes, targets)
        _assert_same_state(state, reference)
        assert cases == self.ALL_CASES

    @pytest.mark.parametrize("engine_cls", [SequentialEngine, ContinuousEngine])
    @pytest.mark.parametrize("graph", ["complete", "ring"])
    def test_engine_blocks_match_reference_loop(self, engine_cls, graph):
        n = 48
        topology = CompleteGraph(n) if graph == "complete" else ring(n)
        protocol = _CheckedProtocol()
        config = multiplicative_bias(n, 3, 2.0)
        # Never stop on consensus: run until every node has terminated.
        result = engine_cls(protocol, topology).run(config, seed=11, stop=_never)
        assert {"endgame", "termination", "terminated", "bp", "bp-bit-set",
                "tc-sample", "tc-commit", "sync-sample", "jump"} <= protocol.cases
        assert result.rounds > n * protocol.params.compile(n).total_length


class TestDefaultBudget:
    def test_budget_covers_schedule_at_50k(self):
        n = 50_000
        protocol = AsyncPluralityProtocol()
        schedule = protocol.params.compile(n)
        budget = protocol.default_parallel_time(n)
        # The engines' generic 50 ln n (~541) falls below the schedule (652).
        assert 50 * np.log(n) < schedule.total_length
        assert budget == pytest.approx(1.5 * schedule.total_length + 20 * np.log(n))
        assert budget == schedule_budget(schedule)
        assert LossyProtocol(protocol, 0.1).default_parallel_time(n) == budget

    @pytest.mark.parametrize("engine_cls", [SequentialEngine, ContinuousEngine])
    def test_engines_use_protocol_budget(self, engine_cls):
        class Idle(AsyncPluralityProtocol):
            def seq_tick_batch(self, state, nodes, topology, rng):
                pass

        n = 64
        protocol = Idle()
        result = engine_cls(protocol, CompleteGraph(n)).run(
            multiplicative_bias(n, 2, 2.0), seed=1, stop=_never
        )
        budget = protocol.default_parallel_time(n)
        assert budget > 50 * np.log(n)
        if engine_cls is SequentialEngine:
            assert result.rounds == int(budget * n)
        else:
            assert result.parallel_time == budget


class TestCrossValidation:
    def test_fast_runner_and_adapter_agree_distributionally(self):
        """The optimised runner and the tick adapter implement the same
        protocol; their success rates and consensus times must agree
        within loose statistical bounds on a small instance."""
        n = 150
        config = multiplicative_bias(n, 4, 2.0)
        trials = 5
        fast_times, fast_wins = [], 0
        adapter_times, adapter_wins = [], 0
        fast = AsyncPluralityConsensus()
        protocol = AsyncPluralityProtocol()
        schedule = protocol.params.compile(n)
        for seed in range(trials):
            r = fast.run(config, seed=seed)
            fast_times.append(r.parallel_time)
            fast_wins += int(r.converged and r.winner == 0)
            engine = SequentialEngine(protocol, CompleteGraph(n))
            r2 = engine.run(config, seed=seed + 1000, max_ticks=3 * n * schedule.total_length)
            adapter_times.append(r2.parallel_time)
            adapter_wins += int(r2.converged and r2.winner == 0)
        assert fast_wins >= trials - 1
        assert adapter_wins >= trials - 1
        # consensus times on the same schedule: same ballpark (x1.6)
        assert np.mean(adapter_times) < 1.6 * np.mean(fast_times) + 5
        assert np.mean(fast_times) < 1.6 * np.mean(adapter_times) + 5
