"""Causal inference engine: graphs, SCMs, exact discrete inference,
kernel independence tests, structure discovery, and effect estimation.

Public names and submodules are imported on first use (PEP 562), so a
process loads only the modules it touches.
"""

import importlib

_EXPORTS = {
    "data": "Dataset",
    "graph": "AdjustmentSets Cpdag Dag count_dags cpdag_of d_separated"
    " enumerate_adjustment_sets enumerate_dags implied_independences"
    " is_valid_adjustment_set markov_equivalent skeleton_and_vstructures"
    " topological_order",
    "scm": "CounterfactualDistribution Intervention Mechanism Scm counterfactual"
    " induced_graph intervene interventional_mean ite sample",
    "cgm": "Cpt DiscreteCgm Factor adjustment_formula cmi condition"
    " front_door_formula joint truncated_factorization",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(
    {*_EXPORTS, "cli", "discovery", "errors", "estimation", "kernels", "scenarios"}
)

# __all__ keeps the submodules it has always listed
__all__ = sorted({*_OWNER, *_EXPORTS, "errors"})
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNER, *_SUBMODULES})
