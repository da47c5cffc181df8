import pytest

from cohh import cochain, cohomology


@pytest.fixture
def corrupted_twist(monkeypatch):
    """Negate every term of the last coface's twist, so d.d != 0.

    `coface_terms` looks `twist_first_to_last` up in the module at call time, so
    the differentials, the coface matrices and every caller above them see it.
    """
    twist = cochain.twist_first_to_last

    def flipped(C, terms):
        return {key: C.field.scalar(-c) for key, c in twist(C, terms).items()}

    monkeypatch.setattr(cochain, "twist_first_to_last", flipped)


@pytest.fixture
def cobar_factors(monkeypatch):
    """Give every Künneth factor its cobar complex, unchecked, as
    `factor_complex` gives the non-monogenic kind, so that `kunneth_table`'s
    own d.d = 0 check and a corrupted twist reach the factor route."""
    monkeypatch.setattr(
        cohomology, "factor_complex",
        lambda F, window: cochain.build_complex(F, window, check=False),
    )
