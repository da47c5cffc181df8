import time

import pytest

from cohh import torpipe
from cohh.coalg import BidegreeWindow, CompositeCharacteristic, WindowTooSmall
from cohh.cohomology import WindowTooLarge, kunneth_table
from cohh.errors import InvalidInput, InvariantFailure
from cohh.torpipe import hz_e2_pipeline


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pipeline_table(p):
    window = BidegreeWindow(3, 6)
    result = hz_e2_pipeline(p, window)
    nonzero = {k for k, v in result.table.entries.items() if v}
    assert nonzero == {
        (0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)
    }
    assert all(v == 1 for v in result.table.entries.values() if v)
    assert result.description == f"Λ(τ)⊗F_{p}[ω], ||τ||=(0,1), ||ω||=(1,1)"


def test_pipeline_window_precondition():
    with pytest.raises(WindowTooSmall):
        hz_e2_pipeline(3, BidegreeWindow(2, 6))
    with pytest.raises(WindowTooSmall):
        hz_e2_pipeline(3, BidegreeWindow(3, 5))


def test_pipeline_refuses_an_oversized_window_before_computing_tor():
    start = time.perf_counter()
    with pytest.raises(WindowTooLarge, match="has 120000004 cells"):
        hz_e2_pipeline(3, BidegreeWindow(3, 30_000_000))
    assert time.perf_counter() - start < 0.5


def test_pipeline_rejects_composite():
    with pytest.raises(CompositeCharacteristic):
        hz_e2_pipeline(4, BidegreeWindow(3, 6))
    with pytest.raises(InvalidInput, match="characteristic must be a prime here"):
        hz_e2_pipeline(0, BidegreeWindow(3, 6))


@pytest.mark.parametrize("spot", [(0, 1), (1, 2), (3, 6), (2, 5)])
def test_pipeline_refuses_a_table_one_entry_off_the_closed_form(monkeypatch, spot):
    """Identification compares the whole table with the closed-form grid, so
    one entry off, in row 0 or 1 or above them, fails the pipeline."""
    def off_by_one(C, window):
        table = kunneth_table(C, window)
        table.entries[spot] += 1
        return table

    monkeypatch.setattr(torpipe, "kunneth_table", off_by_one)
    with pytest.raises(InvariantFailure, match="did not identify as expected: None"):
        hz_e2_pipeline(3, BidegreeWindow(3, 6))
