import numpy as np
import pytest

from trussopt.model import Material, MemberGroup, make_model


@pytest.fixture
def single_bar():
    """One horizontal bar, fixed at the left, pulled at the right."""
    return make_model(
        "single-bar",
        nodes=[(0, 0), (100, 0)],
        elements=[(0, 1, 0)],
        groups=[MemberGroup(0.5, 5.0, 30.0, 30.0)],
        material=Material(10000.0, 0.1),
        supports=[(0, "xy"), (1, "y")],
        load_cases=[{1: (10.0, 0.0)}],
    )


@pytest.fixture
def two_bar():
    """Symmetric pitched two-bar truss, apex loaded downward."""
    return make_model(
        "two-bar",
        nodes=[(0, 0), (80, 60), (160, 0)],
        elements=[(0, 1, 0), (1, 2, 0)],
        groups=[MemberGroup(0.5, 5.0, 30.0, 30.0)],
        material=Material(10000.0, 0.1),
        supports=[(0, "xy"), (2, "xy")],
        load_cases=[{1: (0.0, -12.0)}],
    )


@pytest.fixture
def small_model(single_bar):
    return single_bar
