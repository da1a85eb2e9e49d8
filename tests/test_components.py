"""The registered replacement and disk-queue policies are the ones the matrix keeps.

``BENCH_components.json`` (written by ``benchmarks/components_matrix.py``)
records every judged name's simulated numbers and its verdict.  These tests
read only that file, never simulate: a name the matrix dropped may not be
registered, a kept one may not go missing, and a kept name that is neither
a baseline nor a reference must say in its docstring which row it won.
"""

import json
from pathlib import Path

import pytest

from repro.assembly.registry import registry

KINDS = ("replacement", "iosched")


@pytest.fixture(scope="module")
def matrix():
    return json.loads((Path(__file__).resolve().parents[1] / "BENCH_components.json").read_text())


@pytest.mark.parametrize("kind", KINDS)
def test_registered_names_are_the_kept_ones(matrix, kind):
    entry = matrix["kinds"][kind]
    assert registry.names(kind) == sorted(entry["kept"] + entry["unjudged"])
    assert not set(entry["dropped"]) & set(registry.names(kind))


@pytest.mark.parametrize("kind", KINDS)
def test_every_judged_name_has_numbers_and_a_verdict(matrix, kind):
    entry = matrix["kinds"][kind]
    judged = sorted(entry["kept"] + entry["dropped"])
    assert sorted(entry["verdicts"]) == judged
    for row, cells in entry["rows"].items():
        assert sorted(cells) == judged, row
        for name, values in cells.items():
            assert len(values[matrix["metric"]]) == len(matrix["seeds"]), (row, name)


@pytest.mark.parametrize("kind", KINDS)
def test_each_winner_names_its_row_in_its_docstring(matrix, kind):
    for name, verdict in matrix["kinds"][kind]["verdicts"].items():
        if verdict["verdict"] == "kept" and "won" in verdict:
            assert verdict["won"] in (registry.get(kind, name).__doc__ or ""), name
