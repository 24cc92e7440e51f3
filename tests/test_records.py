"""The replay check of ``tools/records.py``, pinned: every row's records at seed 5, 2 trials.

A change to any random stream (the oracle's draws, TPA's waves, the PPE's
blocks, the trial seeding) or to a default knob moves these counts and must
re-pin them here.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "records.py"

# row -> (oracle_calls, tpa_points, schedule_len) per trial; q_hat is left out,
# as its last bits follow the host's BLAS summation order
PINNED = {
    "q8-tight": [(255883, 16347, 256), (261746, 16666, 262)],
    "q64-long": [(199446, 52208, 817), (200452, 52498, 821)],
    "ising-tv": [(45163, 11481, 181), (44491, 11346, 178)],
    "q8-pool": [(25941, 6509, 103), (25957, 6525, 103)],
    "q1000": [(3103029, 816920, 12766), (3105486, 817587, 12776)],
    "q8-split": [(20969045, 16344, 257), (21456675, 16750, 263)],
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
