"""revode: a numerical laboratory for reversible dynamics.

Exact simulators for small interacting physical systems, a from-scratch
reverse-mode autodiff tape, a graph ODE sequence model trained with a
time-reversal regularizer, and empirical verification of the convergence
and reversibility claims the approach is built on.
"""

__version__ = "0.1.0"
