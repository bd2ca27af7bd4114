"""Hybrid dynamic workload assignment (paper Section 5): hardware block
distribution, the software task pool (Algorithm 1), and the heuristic
chooser."""

from .hardware import hardware_assignment
from .hybrid import (
    DEGREE_THRESHOLD,
    VERTEX_THRESHOLD,
    choose_assignment,
    hybrid_assignment,
)
from .software import software_assignment

__all__ = [
    "hardware_assignment",
    "software_assignment",
    "choose_assignment",
    "hybrid_assignment",
    "VERTEX_THRESHOLD",
    "DEGREE_THRESHOLD",
]
