import pytest

from cohh import cochain
from cohh.coalg import reduced_sums


@pytest.fixture
def corrupted_twist(monkeypatch):
    """Negate every term of the last coface's twist, so d.d != 0.

    `coface_terms` looks `twist_first_to_last` up in the module at call time, so
    the differentials, the coface matrices and every caller above them see it.
    """
    twist = cochain.twist_first_to_last

    def flipped(C, terms):
        negated = {key: -c for key, c in twist(C, terms).items()}
        return reduced_sums(negated, C.field.characteristic)

    monkeypatch.setattr(cochain, "twist_first_to_last", flipped)
