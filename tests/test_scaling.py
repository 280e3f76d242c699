"""The scaling tool prints both tables at small sizes."""

import importlib.util
from pathlib import Path

from conftest import budget

SPEC = importlib.util.spec_from_file_location("scaling", Path(__file__).resolve().parent.parent / "tools" / "scaling.py")
scaling = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(scaling)


def test_scaling_tables_at_8_atoms_and_51_knots(capsys):
    with budget(10):
        assert scaling.main(["--atoms", "8", "--knots", "51", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("best of 1; tradegains from ")
    discrete = next(line for line in lines if line.startswith("| 8 |"))
    pwl = next(line for line in lines if line.startswith("| 51 |"))
    assert len(discrete.split("|")) == 7 and discrete.count(" ms") == 4
    # the 51-knot equal-revenue pair: fb / gft, then two times
    assert pwl.split("|")[2].strip() == "1.4807" and pwl.count(" ms") == 2
