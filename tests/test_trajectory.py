"""CSV rendering of trajectories."""

import math

import numpy as np

from sbprop import CSV_COLUMNS, Trajectory, csv_lines


def test_csv_rows_match_the_per_cell_formula():
    special = np.array([0.0, math.nan, math.inf, -math.inf, -0.0, 5e-324,
                        2.0 ** 53 + 2, 3.0 * 2 ** 70, 1e300, 0.1, 1 / 3, -7.0])
    cols = [np.roll(special, k) for k in range(len(CSV_COLUMNS))]
    traj = Trajectory(*cols)
    lines = list(csv_lines(traj))
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1:] == [",".join(repr(float(c[k])) for c in cols)
                         for k in range(special.size)]
    text = "\n".join(lines)
    for token in ("nan", "-inf", "-0.0", "5e-324", "9007199254740994.0"):
        assert token in text
