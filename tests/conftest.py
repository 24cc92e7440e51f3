"""Shared fixtures."""

import pytest


@pytest.fixture
def grid4_graph(tmp_path):
    """The 4x4 square grid as an edge list, vertices numbered row by row."""
    path = tmp_path / "grid4.txt"
    path.write_text("".join(
        f"{v} {v + step}\n"
        for v in range(16)
        for step, inside in ((1, v % 4 < 3), (4, v < 12))
        if inside
    ))
    return path
