"""Tools for ordering the two receivers of a discrete memoryless broadcast channel.

The package decides, numerically and where possible in closed form, how the
two receivers of a broadcast channel compare: is one a degraded version of
the other, is one less noisy or more capable, and if a universal ordering
fails, does it still hold over a restricted class of input distributions.
On top of the ordering tests it sweeps superposition-coding rate regions and
matching outer bounds.

``import bcorder`` loads no submodule.  Each public name is imported from
its module on first access (PEP 562) and then kept in this namespace, so a
process compiles and runs only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "probcore": (
        "CELL_FLOOR",
        "REFINE_FLOOR",
        "SIMPLEX_TOL",
        "VERDICT_TOL",
        "Dist",
        "DomainError",
        "binary_convolve",
        "binary_entropy",
        "entropy",
        "entropy_vec",
        "simplex_grid",
    ),
    "channels": (
        "AuxDecomposition",
        "ChannelFormatError",
        "CSymmetryWitness",
        "Dmc",
        "NotCSymmetricError",
        "SymmetrizedJoint",
        "aux_mi_batch",
        "bec",
        "bsc",
        "cascade",
        "channel_from_dict",
        "channel_mi",
        "channel_to_dict",
        "detect_c_symmetry",
        "load_channel",
        "mi_batch",
        "save_channel",
        "split_input_pair",
        "symmetrize",
    ),
    "bscbec": (
        "BscBecPair",
        "DegeneratePairError",
        "PairClass",
        "PairTag",
        "classify_pair",
        "critical_point",
        "d_curve",
        "d_derivative",
        "d_func",
        "degrading_channel",
        "regime",
        "thresholds",
    ),
    "classify": (
        "ClassVerdict",
        "Outcome",
        "degraded_holds",
        "degraded_stack",
        "dominant_c_symmetry_stack",
        "less_noisy_stack",
        "more_capable_stack",
        "ordering_verdicts",
        "test_degraded",
        "test_dominant_c_symmetry",
        "test_essentially_less_noisy",
        "test_essentially_more_capable",
        "test_less_noisy",
        "test_more_capable",
    ),
    "regions": (
        "RatePoint",
        "RegionFrontier",
        "frontier_contains",
        "frontier_distance",
        "outer_bound_eq_ob",
        "region_frontiers",
        "superposition_region",
        "theorem1_region",
        "theorem2_region",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
