import dataclasses

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


@pytest.fixture
def zero_bound_pair():
    """A pitched pair of bars, one group each, whose lower area bounds are
    0 (validate requires them positive, so they are set afterwards): at
    zero area in either group the apex is a mechanism."""
    model = make_model(
        "zero-bound-pair", [(0, 0), (80, 60), (160, 0)], [(0, 1, 0), (1, 2, 1)],
        [MemberGroup(0.5, 5.0, 30.0, 30.0), MemberGroup(0.5, 5.0, 30.0, 30.0)],
        Material(10000.0, 0.1), [(0, "xy"), (2, "xy")], [{1: (3.0, -12.0)}])
    groups = tuple(dataclasses.replace(g, area_min=0.0) for g in model.groups)
    return dataclasses.replace(model, groups=groups)


@pytest.fixture
def priced_at(monkeypatch):
    """priced_at(module, name): a list that collects the last argument,
    the penalty iteration, of every later call of module.name. Every
    design of small_model is feasible, so its price F cannot show the
    iteration."""
    def record(module, name):
        iterations = []
        fn = getattr(module, name)

        def recorded(*args):
            iterations.append(args[-1])
            return fn(*args)
        monkeypatch.setattr(module, name, recorded)
        return iterations
    return record
