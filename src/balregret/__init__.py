"""Robust combinatorial optimization under balanced regret.

Solvers for min-max-min regret with budgeted uncertainty on selection,
knapsack, and shortest-path feasible sets, plus instance generators and
criteria evaluation.
"""

from .core import (
    AdversaryCertificate,
    BinarySolution,
    Budgets,
    InfeasibleError,
    InputError,
    Instance,
    InternalError,
    ItemCosts,
    Knapsack,
    MultiRepSelection,
    ScaleError,
    Scenario,
    ShortestPath,
    enumerate_solutions,
    nominal_solve,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryCertificate",
    "BinarySolution",
    "Budgets",
    "InfeasibleError",
    "InputError",
    "Instance",
    "InternalError",
    "ItemCosts",
    "Knapsack",
    "MultiRepSelection",
    "ScaleError",
    "Scenario",
    "ShortestPath",
    "enumerate_solutions",
    "nominal_solve",
    "__version__",
]
