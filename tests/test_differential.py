"""Every fast path against its slow oracle: each row of the harness
registry on each strategy it names."""

import pytest

import harness


@pytest.mark.parametrize(
    "row, draw", [pytest.param(row, draw, id=f"{row.name}-on-{draw.name}") for row in harness.ROWS for draw in row.draws]
)
def test_fast_path_matches_its_oracle(row, draw):
    harness.run(row, draw)
