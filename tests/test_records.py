"""Records are values: every dataclass in the package is frozen, and two built from equal inputs compare equal,
hash alike and hold no writable array."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import qubitlab
from qubitlab.bell import BellKind, invariance_check, joint_probabilities, plane_direction, sample_joint
from qubitlab.boxes import chsh_value, conservation_filter, lhv_max_chsh, no_signalling_check, pr_box, tsirelson_scan
from qubitlab.hilbert import pauli_decompose
from qubitlab.measure import SGSetup, sample_outcomes
from qubitlab.qubit import ClassicalBitState, QubitState
from qubitlab.quoin import (
    ClassicalBitsStrategy, QuoinMechanics, QuoinStrategy, RandomStrategy, enumerate_riggings, monte_carlo, play_game,
    verify_parity_theorem,
)
from qubitlab.spinops import CheckResult, SpinOperatorTriple, verify_pauli_embedding

A, B = plane_direction("xz", 0.0), plane_direction("xz", 1.0)

# one builder per record type, each called twice
ROWS = {
    "hilbert.PauliCoefficients": lambda: pauli_decompose(np.array([[0.75, 0.25], [0.25, 0.25]])),
    "qubit.QubitState": lambda: QubitState(np.array([[0.8, 0.3], [0.3, 0.2]])),
    "qubit.ClassicalBitState": lambda: ClassicalBitState(0.25),
    "spinops.SpinOperatorTriple": SpinOperatorTriple.canonical,
    "spinops.CheckResult": lambda: CheckResult("lz Hermitian", True, 0.0),
    "spinops.SpinTripleReport": lambda: verify_pauli_embedding(SpinOperatorTriple.canonical()),
    "measure.SGSetup": lambda: SGSetup((0, 0, 1), B),
    "measure.OutcomeSample": lambda: sample_outcomes(SGSetup((0, 0, 1), B), 100, 7),
    "bell.JointProbabilities": lambda: joint_probabilities(BellKind.SINGLET, A, B),
    "bell.InvarianceReport": lambda: invariance_check(BellKind.SINGLET, (1, 2, 2), 0.3),
    "bell.JointSample": lambda: sample_joint(BellKind.PHI_PLUS, A, B, 100, 3),
    "boxes.BehaviorBox": pr_box,
    "boxes.NoSignallingReport": lambda: no_signalling_check(pr_box()),
    "boxes.ChshResult": lambda: chsh_value(pr_box()),
    "boxes.LhvScanResult": lhv_max_chsh,
    "boxes.ConservationVerdict": lambda: conservation_filter(pr_box()),
    "boxes.TsirelsonScan": lambda: tsirelson_scan(n=8),
    "quoin.QuoinMechanics": lambda: QuoinMechanics([(1, 1)]),
    "quoin.RiggingFailure": lambda: enumerate_riggings().failures[0],
    "quoin.RiggingScan": enumerate_riggings,
    "quoin.QuoinStrategy": QuoinStrategy,
    "quoin.ClassicalBitsStrategy": lambda: ClassicalBitsStrategy(2),
    "quoin.RandomStrategy": RandomStrategy,
    "quoin.GameRecord": lambda: play_game(QuoinStrategy(), 1, 2),
    "quoin.MonteCarloSummary": lambda: monte_carlo(QuoinStrategy(), 10, 1),
    "quoin.ParityTheoremReport": lambda: verify_parity_theorem(range(2), lanes=2),
}


def record_types() -> dict[str, type]:
    """Every dataclass defined in a package module, keyed 'module.Name'; importing __main__ would run the CLI."""
    found = {}
    for info in pkgutil.iter_modules(qubitlab.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"qubitlab.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def arrays(value):
    """The ndarrays in a value, through nested tuples, frozensets and records."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, frozenset)):
        for item in value:
            yield from arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from arrays(getattr(value, f.name))


def test_every_record_type_is_frozen_and_has_a_row():
    types = record_types()
    assert sorted(types) == sorted(ROWS)
    assert [name for name, cls in types.items() if not cls.__dataclass_params__.frozen] == []


@pytest.mark.parametrize("name", list(ROWS))
def test_a_record_is_a_value(name):
    first, second = ROWS[name](), ROWS[name]()
    assert type(first) is record_types()[name]
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert [a for a in arrays(first) if a.flags.writeable] == []
