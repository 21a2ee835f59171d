"""Simulation and verification tools for state-dependent bandit problems.

The package covers three kinds of study: regret-minimizing play with an
optimism index, fixed-budget best-arm identification with uniform or
elimination allocation, and closed-form performance guarantees evaluated
against Monte Carlo estimates. A budgeted multi-stage screening pipeline
applies the same machinery to a triage setting with per-evaluation costs.

Each library module's ``__all__`` is the one list of what it exports; the
package root re-exports every one of them (``cli`` is the entry point, not
a library module).
"""

from .divergence import *
from .env import *
from .errors import *
from .bounds import *
from .montecarlo import *
from .rng import *
from .strategies import *
from .triage import *

__version__ = "0.1.0"

# importing a submodule binds its name here, so each module is in scope by name
__all__ = [name for module in (divergence, env, errors, bounds, montecarlo, rng, strategies, triage)
           for name in module.__all__]
