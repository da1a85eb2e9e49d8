"""The registered components are the ones the matrix keeps.

``BENCH_components.json`` (written by ``benchmarks/components_matrix.py``)
records every judged replacement, disk-queue, placement and layout name's
simulated numbers and its verdict.  These tests read only that file, never
simulate: a name the matrix dropped may not be registered, a kept one may
not go missing, and a kept name that is neither a baseline nor a reference
must say in its docstring which row it won.
"""

import json
from pathlib import Path

import pytest

from repro.assembly.registry import registry

KINDS = ("replacement", "iosched", "placement", "layout")


@pytest.fixture(scope="module")
def matrix():
    return json.loads((Path(__file__).resolve().parents[1] / "BENCH_components.json").read_text())


@pytest.mark.parametrize("kind", KINDS + ("cleaner",))
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
    # A row listed as judging nothing measured two kept names at least, all
    # the same on every seed.
    for row in entry["uninformative_rows"]:
        measured = kept_measurements(matrix, kind, row)
        assert len(measured) >= 2 and len(set(measured)) == 1, row


def kept_measurements(matrix, kind, row):
    """The kept names' values on ``row``, one tuple (a value per seed) for
    each name that could build the row's stack."""
    cells = matrix["kinds"][kind]["rows"][row]
    values = [tuple(cells[name][matrix["metric"]]) for name in matrix["kinds"][kind]["kept"]]
    return [value for value in values if value != (None,) * len(value)]


@pytest.mark.parametrize("kind", KINDS)
def test_uninformative_rows_are_every_row_the_kept_names_cannot_tell_apart(matrix, kind):
    """Recomputed from the committed rows: a deleted name's all-``null``
    cells are no measurement, and one kept name alone judges nothing."""
    entry = matrix["kinds"][kind]
    expected = []
    for row in entry["rows"]:
        measured = kept_measurements(matrix, kind, row)
        if len(measured) >= 2 and len(set(measured)) == 1:
            expected.append(row)
    assert entry["uninformative_rows"] == expected


@pytest.mark.parametrize("kind", KINDS)
def test_each_winner_names_its_row_in_its_docstring(matrix, kind):
    for name, verdict in matrix["kinds"][kind]["verdicts"].items():
        if verdict["verdict"] == "kept" and "won" in verdict:
            assert verdict["won"] in (registry.get(kind, name).__doc__ or ""), name


def test_the_cleaners_are_listed_unjudged(matrix):
    entry = matrix["kinds"]["cleaner"]
    assert entry["unjudged"] == registry.names("cleaner")
    assert entry["kept"] == entry["dropped"] == [] and entry["verdicts"] == {}
