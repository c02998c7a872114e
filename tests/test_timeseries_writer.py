"""``cli.write_timeseries`` formats each row with one % string; its bytes must
equal the ``csv.writer`` of eleven ``_fmt`` cells it replaced, kept here."""

import csv
import io
import math

import numpy as np

from reference import trajectory_from_rows
from toruswave.cli import TIMESERIES_COLUMNS, TIMESERIES_FORMAT, _fmt, write_timeseries
from toruswave.energy import COLUMNS
from toruswave.fields import GridSpec
from toruswave.solver import SolverConfig
from toruswave.source import ModelParams
from toruswave.verify import ABS_TOL


def csv_writer_reference(trajectory, e_m0):
    buffer = io.StringIO()
    buffer.write(f"# {TIMESERIES_FORMAT}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["t", "Em", "Em_sq", "E_std_sq", "u_Hm", "ut_Hm", "F_Hm",
         "u_mean", "F_mean", "u_min", "bootstrap_ok"]
    )
    threshold = e_m0**2 * (1.0 + ABS_TOL)
    u_hm = 1 + COLUMNS.index("u_hm")
    for row in trajectory.table.tolist():
        ok = 1 if 0.5 * row[u_hm] ** 2 <= threshold else 0
        writer.writerow([_fmt(row[0]), _fmt(math.sqrt(row[1])), *map(_fmt, row[1:]), ok])
    return buffer.getvalue()


def test_rows_match_the_csv_writer_byte_for_byte(tmp_path):
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((40, 1 + len(COLUMNS))) * 10.0 ** rng.integers(-150, 150, (40, 1))
    rows[:, 1] = np.abs(rows[:, 1])  # Em_sq, whose square root is Em
    rows[:, 0] = 0.1 * np.arange(40)
    rows[:3, 1 + COLUMNS.index("u_hm")] = [0.01, 0.1, 1.0]  # bootstrap flag 1, then 0
    rows[5, 2:] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0, 1e16]
    rows[6, 1] = math.inf
    trajectory = trajectory_from_rows(
        list(rows),
        params=ModelParams(omega=0.5, kappa=0.25, mu=0.5, m=3),
        config=SolverConfig(GridSpec(8), dt=0.1, t_end=4.0),
    )
    path = tmp_path / "timeseries.csv"
    write_timeseries(path, trajectory, 0.25)
    text = path.read_text()
    assert text == csv_writer_reference(trajectory, 0.25)
    assert text.splitlines()[1] == ",".join(TIMESERIES_COLUMNS)
    assert {line.rsplit(",", 1)[1] for line in text.splitlines()[2:]} == {"0", "1"}


def test_a_norm_whose_square_overflows_fails_the_bootstrap_flag(tmp_path):
    # 1e200 ** 2 raises OverflowError on a Python float; the writer squares it to inf
    row = np.zeros(1 + len(COLUMNS))
    row[1 + COLUMNS.index("u_hm")] = 1e200
    trajectory = trajectory_from_rows(
        [row],
        params=ModelParams(omega=0.5, kappa=0.25, mu=0.5, m=3),
        config=SolverConfig(GridSpec(8), dt=0.1, t_end=4.0),
    )
    path = tmp_path / "timeseries.csv"
    write_timeseries(path, trajectory, 0.25)
    (line,) = path.read_text().splitlines()[2:]
    assert float(line.split(",")[TIMESERIES_COLUMNS.index("u_Hm")]) == 1e200
    assert line.rsplit(",", 1)[1] == "0"
