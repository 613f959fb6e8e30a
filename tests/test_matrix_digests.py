"""Golden digests for every system x workload cell of the integration
matrix (``tests/test_workload_system_matrix.py``), at its tiny scale.

The fig8d and chaos pins in ``tests/test_golden_digest.py`` exercise
only Xenic on Smallbank.  These pins cover every baseline's one-sided
RDMA and RPC verb paths on three workload shapes as well, so any change
to ``hw.rdma``, ``sim.link`` or ``core.protocol`` that moves a simulated
quantity in any system fails here.  Each digest must also hold with an
Observer installed (observer neutrality).

The digests match the tree before delay fusion existed (commit f88fb8a)
cell for cell.  The fused engine path, since removed, simulated a
different run on drtmh/retwis and drtmh_nc/retwis.
"""

import pytest

from repro.bench.golden import (
    MATRIX_SYSTEMS,
    MATRIX_WORKLOADS,
    canonical_digest,
    matrix_payload,
)

MATRIX_DIGESTS = {
    ("xenic", "smallbank"):
        "63fd62a513257b407bfb01d75f5d314028a674e5f3434d33d102b7f742e569ce",
    ("xenic", "retwis"):
        "695044984a15984f3d57595fe7c78e52215981ba90dba33281e8623f3f5ae434",
    ("xenic", "tpcc_no"):
        "a18f6af87ef1a28034776b726a669dfda2284e23f019c02805d29a2f92f7ca14",
    ("drtmh", "smallbank"):
        "4322af75ccc4ad72c1d3fa0b7da71cc50328ab14309b76d5d659f32598d25cfe",
    ("drtmh", "retwis"):
        "805fbe085df1a9d5ec75ebbede66fcb43e1fb4c84f588bab1daabc396d00c2eb",
    ("drtmh", "tpcc_no"):
        "75d5727ab676b9843b4c3253f4cb106bc0804b2bd13ce6e934be9540c8307c54",
    ("drtmh_nc", "smallbank"):
        "b5bd4681dc64645ff5dbfff39a483644cee2006c24cdb91fdd2c1aa8aaab0c33",
    ("drtmh_nc", "retwis"):
        "3ecbdf1dca134c2ce84dbabe7039ae572e889ccca0597269b38cbe4ff9c4850f",
    ("drtmh_nc", "tpcc_no"):
        "ded4eb5a4a0217191d090a9d4a190dad2b9fa265dc6551df370c036e5f0dd9ee",
    ("fasst", "smallbank"):
        "13735242545e142aa074a593ee618d03c57baddab1f83fbe64f7af00a88d7c3c",
    ("fasst", "retwis"):
        "18ca79de505ac2c238c5567ae1385631b9da9fb9170d241d3b0c9845771ff11d",
    ("fasst", "tpcc_no"):
        "33b432b7e2e226ea1f428004065a795338185cdbf53a129813788f151ca8b1d0",
    ("drtmr", "smallbank"):
        "5de3f63ca893d7f7629b7741150774a84f4f0336091bcad4e146b1b533fbb502",
    ("drtmr", "retwis"):
        "ac8009cdf7a1829b95dcae03170ebd40a47fe0f8f66e0b6932dac6d0b44556a9",
    ("drtmr", "tpcc_no"):
        "a24886dd687ba686011392bb11aac1a0b64b082f992565de0e74a442a102b37d",
}

CELLS = [(s, w) for s in MATRIX_SYSTEMS for w in MATRIX_WORKLOADS]


def test_pins_cover_the_whole_grid():
    assert set(MATRIX_DIGESTS) == set(CELLS)


@pytest.mark.parametrize("system,workload", CELLS)
def test_matrix_digest_pinned(system, workload):
    digest = canonical_digest(matrix_payload(system, workload))
    assert digest == MATRIX_DIGESTS[system, workload]


@pytest.mark.parametrize("system,workload", CELLS)
def test_matrix_digest_observer_neutral(system, workload):
    digest = canonical_digest(matrix_payload(system, workload, obs=True))
    assert digest == MATRIX_DIGESTS[system, workload]
