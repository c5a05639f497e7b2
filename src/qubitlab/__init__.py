"""qubitlab: qubit state space, two-valued spin statistics, Bell correlations,
CHSH/no-signalling boxes, and the quoin guessing game.

The package is lazy (PEP 562): `import qubitlab` loads no submodule and no
numpy. A submodule, or a name in `__all__`, is imported on first access.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package re-exports from it
_EXPORTS = {
    "bell": (
        "BellKind", "JointProbabilities", "bell_density", "bell_vector", "closed_form_joint",
        "conditional_average", "invariance_check", "joint_probabilities", "plane_direction",
    ),
    "boxes": (
        "BehaviorBox", "ChshResult", "chsh_value", "conservation_filter", "deterministic_box",
        "lhv_max_chsh", "no_signalling_check", "pr_box", "quantum_box", "tsirelson_scan",
    ),
    "errors": (
        "ATOL_EXACT", "ConditioningError", "DimensionError", "DomainError", "HermiticityError",
        "InvalidStateError", "QubitLabError",
    ),
    "hilbert": ("PauliCoefficients", "commutator", "pauli_decompose", "tensor"),
    "measure": (
        "OutcomeSample", "SGSetup", "expected_outcome", "projection_probabilities", "sample_outcomes",
    ),
    "quoin": (
        "ClassicalBitsStrategy", "GameRecord", "MonteCarloSummary", "QuoinMechanics", "QuoinStrategy",
        "RandomStrategy", "enumerate_riggings", "flip_pair", "monte_carlo", "play_game",
        "verify_parity_theorem",
    ),
    "qubit": (
        "ClassicalBitState", "QubitState", "bloch_roundtrip", "classical_pure_path", "gbit_dimension",
        "su2_rotate", "su2_rotation",
    ),
    "spinops": (
        "SpinOperatorTriple", "construct_lx_from_lz", "construct_ly_from_lz", "verify_pauli_embedding",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "rng"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
