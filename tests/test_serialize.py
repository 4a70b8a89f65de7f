import math

import numpy as np
import pytest

from bitraj.serialize import csv_cell, csv_text


@pytest.mark.parametrize(
    "rows, body",
    [
        (
            [(0.1, np.float64(0.1), np.float32(0.1))],
            "0.10000000000000001,0.10000000000000001,0.10000000149011612\n",
        ),
        ([(math.nan, np.inf, -math.inf, -0.0)], "nan,inf,-inf,-0\n"),
        ([(True, False, np.True_)], "True,False,True\n"),
        ([(3, np.int64(-12), 2**70)], "3,-12,1180591620717411303424\n"),
        ([(csv_cell("a,b"), csv_cell('say "x"'), csv_cell("plain"))], '"a,b","say ""x""",plain\n'),
        ([(1, 0.5), (2, 0.25)], "1,0.5\n2,0.25\n"),
        ([], ""),
    ],
    ids=["floats", "non-finite", "booleans", "integers", "quoted-labels", "two-rows", "no-rows"],
)
def test_csv_text(rows, body):
    # floats as %.17g, everything else by str; the header line comes first
    assert csv_text("header", rows) == "header\n" + body
