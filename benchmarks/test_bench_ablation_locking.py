"""A-LOCK — Fig. 7's locking-discipline ablation.

Shape: FlowValve's try-lock (and uncontended per-class blocking) keep
the full multi-core capacity; a single global lock or a serialised
scheduling function collapses throughput by ~an order of magnitude —
the paper's Challenge 1 ("the selected core should always provide the
same throughput as the rest of cores amount to").
"""

from conftest import run_once

from repro.experiments import ablations


def test_lock_mode_ablation(benchmark, emit):
    result = run_once(benchmark, ablations.lock_modes)
    emit(result.to_table().render())

    by_mode = {r.lock_mode: r for r in result.results}
    trylock = by_mode["trylock"].mpps
    per_class = by_mode["per_class_block"].mpps
    global_block = by_mode["global_block"].mpps
    sequential = by_mode["sequential"].mpps

    # Parallel disciplines sustain the NP's capacity...
    assert trylock > 15.0
    assert per_class > 0.9 * trylock
    # ...serialising collapses it.
    assert global_block < 0.25 * trylock
    assert sequential <= global_block * 1.1
    # Nobody waits on locks in trylock mode; the serialised modes
    # accumulate real waiting time.
    assert by_mode["trylock"].lock_wait_seconds == 0.0
    assert by_mode["sequential"].lock_wait_seconds > 0.01
