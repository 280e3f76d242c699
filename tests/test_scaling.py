"""The scaling tool prints its tables at small sizes."""

import importlib.util
from pathlib import Path

from conftest import budget

SPEC = importlib.util.spec_from_file_location("scaling", Path(__file__).resolve().parent.parent / "tools" / "scaling.py")
scaling = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(scaling)


def test_scaling_tables_at_8_atoms_and_51_knots(capsys):
    with budget(10):
        assert scaling.main(["--atoms", "8", "--knots", "51", "--trials", "--sweep-atoms", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("best of 1; tradegains from ")
    discrete = next(line for line in lines if line.startswith("| 8 |"))
    pwl = next(line for line in lines if line.startswith("| 51 |"))
    assert len(discrete.split("|")) == 7 and discrete.count(" ms") == 4
    # the 51-knot equal-revenue pair: fb / gft, then two times
    assert pwl.split("|")[2].strip() == "1.4807" and pwl.count(" ms") == 2


def test_montecarlo_table_at_1000_trials(capsys):
    with budget(10):
        assert scaling.main(["--atoms", "--knots", "--trials", "1000", "--sweep-atoms", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "| trials | c064 ns/trial | c064 B/trial | uu ns/trial | uu B/trial | pd32 ns/trial | pd32 B/trial |"
    row = next(line for line in lines if line.startswith("| 1,000 |"))
    cells = [float(cell) for cell in row.strip("|").split("|")[1:]]
    assert len(cells) == 6 and all(cell > 0.0 for cell in cells)


def test_sweep_table_at_1_and_19_lambdas_on_8_atoms(capsys):
    with budget(10):
        assert scaling.main(["--atoms", "--knots", "--trials", "--sweep-atoms", "8", "--sweep-lambdas", "1", "19", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "| atoms per side | 1 λ | 19 λ | us per λ beyond 1, at 19 λ |"
    cells = next(line for line in lines if line.startswith("| 8 |")).strip("|").split("|")[1:]
    assert [cell.strip().endswith(" ms") for cell in cells] == [True, True, False]
    assert float(cells[0].split()[0]) > 0.0 and float(cells[1].split()[0]) > 0.0
    float(cells[2])  # the time per added lambda: a number, of either sign on a noisy host


def test_build_table_at_8_atoms_and_51_knots(capsys):
    with budget(10):
        assert scaling.main(["--atoms", "8", "--knots", "51", "--trials", "--sweep-atoms", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("| instance | `trade_instance_from_json` | cold − warm `equilibrium` | cold build |")
    assert header > 2  # the last table, after the discrete and equal-revenue ones
    rows = lines[header + 2 :]
    assert [row.split("|")[1].strip() for row in rows] == ["8 atoms", "51 knots"]
    for row in rows:
        cells = [cell.strip() for cell in row.strip("|").split("|")[1:]]
        assert len(cells) == 3 and all(cell.endswith(" ms") for cell in cells)
        assert float(cells[0].split()[0]) > 0.0
        float(cells[1].split()[0])  # cold less warm: a number, of either sign on a noisy host
