"""Shared fixtures."""

import pytest

from gibbsratio.claims import GRID4


@pytest.fixture
def grid4_graph(tmp_path):
    """``claims.GRID4``, the 4x4 square grid, as an edge-list file."""
    path = tmp_path / "grid4.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in GRID4.edges))
    return path
