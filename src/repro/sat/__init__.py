"""From-scratch SAT solving — the reproduction's stand-in for MiniSAT."""

from .models import enumerate_minimal_models, minimum_model, shrink_model
from .solver import SATSolver, solve_clauses

__all__ = [
    "SATSolver", "enumerate_minimal_models", "minimum_model",
    "shrink_model", "solve_clauses",
]
