"""Solver and verifier for two-player zero-sum switching games on a 1-D state.

Computes the descending (hard floor, penalized ceiling) and ascending
(hard ceiling, penalized floor) approximations of the coupled
double-obstacle value system by monotone implicit finite differences,
checks that the two meet, and validates the values against a simulated
switching game with explicit feedback saddle strategies.  The package root
exports only ``__version__``; import from the submodules.
"""

__version__ = "0.1.0"
