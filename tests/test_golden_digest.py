"""Golden-digest determinism pins: one committed seed per experiment family.

These digests hash *every simulated metric* of a committed-seed run
(committed state, counters, latencies, simulated clock — never
wall-clock).  They were captured before the model-layer fast-path pass
and must never change under a wall-clock-only optimization: if a change
here fails, the "optimization" altered simulated behaviour (RNG draw
order, event interleaving, or protocol logic) and must be fixed or
reclassified as a modeling change (with an explicit digest re-pin and a
note in EXPERIMENTS.md).

Observer neutrality rides on the same pins: the ``--obs`` variants must
produce the *same* digest as the bare runs.
"""

import pytest

from repro.bench.golden import (
    canonical_digest,
    chaos_payload,
    fig8d_point_payload,
)
from repro.sim.equeue import selected_queue_kind

# Captured from the pre-optimization model layer (PR 4 tree); simulated
# results are frozen at these values for the committed seeds.
FIG8D_DIGEST = "4829497d19fcb834dabcd8f6df4f856c1e012a07f14171c651dcb765841ed7af"
CHAOS_DIGEST = "261dcd150aeaee14626773601d2b4aeead9bfe1633c1491f43acf2137d30cfe1"


def test_fig8d_point_digest_pinned():
    assert canonical_digest(fig8d_point_payload()) == FIG8D_DIGEST


@pytest.mark.parametrize("queue", ["heap"])
def test_fig8d_point_digest_per_queue(queue):
    """The event queue of this build (the heap is the only kind)
    reproduces the pinned digest."""
    assert selected_queue_kind() == queue
    assert canonical_digest(fig8d_point_payload()) == FIG8D_DIGEST


def test_fig8d_point_digest_observer_neutral():
    """An observed run matches the pinned digest: observer hooks add no
    events and move no timestamps."""
    assert canonical_digest(fig8d_point_payload(obs=True)) == FIG8D_DIGEST


@pytest.mark.parametrize("queue", ["heap"])
def test_fig8d_point_digest_observer_neutral_per_queue(queue):
    """An observed run matches the pinned digest on the event queue of
    this build (the heap is the only kind)."""
    assert selected_queue_kind() == queue
    assert canonical_digest(fig8d_point_payload(obs=True)) == FIG8D_DIGEST


def test_chaos_seed_digest_pinned():
    assert canonical_digest(chaos_payload()) == CHAOS_DIGEST


def test_chaos_seed_digest_observer_neutral():
    assert canonical_digest(chaos_payload(obs=True)) == CHAOS_DIGEST
