"""The replay check of ``tools/records.py``, pinned: every row's records at seed 5, 2 trials.

A change to any random stream (the oracle's draws, TPA's waves, the PPE's
blocks, the trial seeding) moves these counts and must re-pin them here.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "records.py"

# row -> (oracle_calls, tpa_points, schedule_len) per trial; q_hat is left out,
# as its last bits follow the host's BLAS summation order
PINNED = {
    "q8-tight": [(258812, 16498, 259), (260814, 16652, 261)],
    "q64-long": [(259596, 132842, 2077), (258888, 132494, 2071)],
    "ising-tv": [(58479, 28673, 449), (59096, 28990, 454)],
    "q8-pool": [(34172, 16498, 259), (34446, 16652, 261)],
    "q1000": [(4023906, 2075732, 32434), (4022633, 2075059, 32424)],
    "q8-split": [(21131612, 16498, 259), (21294174, 16652, 261)],
}


def test_every_row_replays_through_the_cli_with_the_pinned_counts():
    spec = importlib.util.spec_from_file_location("records", TOOL)
    records = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(records)
    got = {}
    for name, api, cli in records.replay(seed=5, trials=2):
        assert records._digest(api) == records._digest(cli), name
        got[name] = [(rec["oracle_calls"], rec["tpa_points"], rec["schedule_len"]) for rec in api]
    assert got == PINNED
