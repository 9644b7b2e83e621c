"""Wide-word (W x 64-pattern superword) invariants across the stack.

ISSUE 9's load-bearing property: widening the simulation word must
never change a single bit anywhere.  These tests pin it layer by
layer —

* the block bit-matrix transpose round-trips at ragged superword
  shapes (rows and columns both far beyond one 64-bit limb);
* one :meth:`~repro.hdl.sim.levelized.LevelizedSimulator.run_segments`
  superword settle pass equals independent per-segment runs, including
  across register banks (the boundary-masked time shift);
* the serve path is bit-identical to
  :func:`~repro.serve.transactions.reference_result` at
  ``word_patterns`` 64, 256 and 1024 and at batch-of-one (W=1);
* a fault campaign over a full-battery-width word matches the
  clone-and-re-simulate reference verdict for verdict.
"""

import random
from functools import partial

import pytest

from repro.errors import FormatError, QueueFullError
from repro.hdl.sim.levelized import LevelizedSimulator, bit_transpose
from repro.serve import Server, WORD_PATTERNS, reference_result
from repro.serve.loadgen import TrafficGenerator
from repro.serve.queueing import BatchingQueue
from repro.serve.transactions import validate_word_patterns
from tests.oracles.levelized import interpreted_run, interpreted_run_segments


def _stream(n, seed, specials=0.15):
    gen = TrafficGenerator(seed=seed, specials=specials,
                           reducible_fraction=0.5)
    return [gen.next_transaction() for _ in range(n)]


# ---------------------------------------------------------------------------
# transpose: ragged multi-limb round trips
# ---------------------------------------------------------------------------

def test_bit_transpose_round_trips_at_superword_shapes():
    """transpose(transpose(rows)) == rows for ragged wide shapes."""
    rng = random.Random(90210)
    for n_rows, width in [(1, 1024), (1024, 1), (65, 700), (700, 65),
                          (128, 128), (513, 200), (200, 513)]:
        rows = [rng.getrandbits(width) for __ in range(n_rows)]
        cols = bit_transpose(rows, width)
        assert bit_transpose(cols, n_rows) == rows, (n_rows, width)


# ---------------------------------------------------------------------------
# run_segments: one superword pass == independent runs
# ---------------------------------------------------------------------------

def _random_stimulus(module, n, rng):
    return {name: [rng.getrandbits(len(bus)) for __ in range(n)]
            for name, bus in module.inputs.items()}


@pytest.mark.parametrize("compiled", [True, False])
def test_run_segments_bit_identical_to_independent_runs(compiled):
    """Ragged segments through a registered datapath, on the compiled
    kernel and on the interpreted oracle."""
    from repro.circuits.mult_radix4 import radix4_multiplier

    module = radix4_multiplier()
    if compiled:
        sim = LevelizedSimulator(module)
        run_segments, run = sim.run_segments, sim.run
    else:
        run_segments = partial(interpreted_run_segments, module)
        run = partial(interpreted_run, module)
    rng = random.Random(1709)
    lengths = [1, 7, 64, 13, 100]          # ragged: boundaries mid-limb
    jobs = [(_random_stimulus(module, n, rng), n) for n in lengths]
    seg = run_segments(jobs)
    assert seg.n_patterns == sum(lengths)
    for i, (stimulus, n) in enumerate(jobs):
        solo = run(stimulus, n)
        assert seg.segment_run(i).values == solo.values, i
        assert seg.toggles_per_net(i) == solo.toggles_per_net(), i


# ---------------------------------------------------------------------------
# serve: bit-identity at every word width
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("word_patterns", [64, 256, 1024])
def test_serve_bit_identical_at_wide_words(word_patterns):
    """Mixed lanes + specials through superword-sized batches."""
    txs = _stream(min(2 * word_patterns, 600), seed=word_patterns,
                  specials=0.2)
    server = Server(max_wait=60.0, autostart=False,
                    word_patterns=word_patterns)
    assert server.word_patterns == word_patterns
    tickets = [server.submit(tx) for tx in txs]
    server.drain()
    for tx, ticket in zip(txs, tickets):
        assert ticket.result(timeout=0) == reference_result(tx), \
            (word_patterns, tx)


def test_serve_bit_identical_one_per_word():
    """W=1 degenerate: every transaction dispatches alone."""
    txs = _stream(48, seed=48, specials=0.3)
    server = Server(max_batch=1, max_wait=60.0, autostart=False)
    tickets = [server.submit(tx) for tx in txs]
    server.drain()
    for tx, ticket in zip(txs, tickets):
        assert ticket.result(timeout=0) == reference_result(tx), tx


# ---------------------------------------------------------------------------
# width policy: validation and queue scaling
# ---------------------------------------------------------------------------

def test_validate_word_patterns():
    for good in (64, 128, 256, 64 * 64):
        assert validate_word_patterns(good) == good
    for bad in (0, 1, 63, 65, -64, 96, 64.0, True, None, "64"):
        with pytest.raises(FormatError):
            validate_word_patterns(bad)


def test_queue_defaults_scale_with_word_patterns():
    q = BatchingQueue(lane="fp64", word_patterns=512)
    assert q.max_batch == 512
    assert q.max_depth >= 512
    with pytest.raises(FormatError, match="word_patterns"):
        BatchingQueue(lane="fp64", word_patterns=512, max_batch=513)
    with pytest.raises(FormatError):
        BatchingQueue(lane="fp64", word_patterns=96)


def test_queue_full_error_reports_width():
    from repro.serve import Transaction

    server = Server(max_batch=4, max_wait=60.0, max_depth=4,
                    autostart=False)
    rng = random.Random(5)
    txs = [Transaction.int64(rng.getrandbits(64), rng.getrandbits(64))
           for __ in range(5)]
    for tx in txs[:4]:
        server.submit(tx)
    with pytest.raises(QueueFullError, match=r"word_patterns=\d+"):
        server.submit(txs[4], block=False)
    server.drain()


# ---------------------------------------------------------------------------
# fault campaigns: wide golden battery changes nothing
# ---------------------------------------------------------------------------

def test_wide_battery_campaign_matches_reference():
    from repro.eval.experiments import cached_module
    from repro.eval.fault_injection import (campaign_battery,
                                            mutation_coverage)
    from tests.oracles.fault_resim import reference_coverage

    module = cached_module("r16")
    battery = campaign_battery("r16", module, patterns=256)
    assert battery.n_patterns >= 256
    ref = reference_coverage(module, battery, 6, seed=11)
    got = mutation_coverage(module, battery, n_mutations=6, seed=11)
    assert (ref.attempted, ref.detected) == (got.attempted, got.detected)
    assert [(s.gate_index, s.description) for s in ref.survivors] \
        == [(s.gate_index, s.description) for s in got.survivors]


def test_campaign_engine_shares_one_golden_run():
    from repro import obs
    from repro.eval.fault_injection import (campaign_engine,
                                            clear_campaign_cache,
                                            coverage_chunk)

    clear_campaign_cache()
    reg = obs.registry()
    before = reg.counter_value("fault.golden_runs") or 0
    for seed in range(3):
        module, battery = campaign_engine("r16", battery_patterns=128)
        assert battery.n_patterns >= 128
        coverage_chunk("r16", n_mutations=1, seed=seed,
                       battery_patterns=128)
    clear_campaign_cache()
    assert (reg.counter_value("fault.golden_runs") or 0) - before == 1
