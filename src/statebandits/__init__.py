"""Simulation and verification tools for state-dependent bandit problems.

The package covers three kinds of study: regret-minimizing play with an
optimism index, fixed-budget best-arm identification with uniform or
elimination allocation, and closed-form performance guarantees evaluated
against Monte Carlo estimates. A budgeted multi-stage screening pipeline
applies the same machinery to a triage setting with per-evaluation costs.

Each library module's ``__all__`` is the one list of what it exports; the
package root re-exports every one of them (``cli`` is the entry point, not
a library module). The root is lazy (PEP 562): the first public name looked
up on it imports the eight modules, so importing it alone loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# the library modules, in the order their ``__all__`` lists are concatenated
_MODULES = ("divergence", "env", "errors", "bounds", "montecarlo", "rng", "strategies", "triage")


def __getattr__(name):
    if not name.startswith("_") or name == "__all__":  # bind every module's exports
        exports = []
        for module in (importlib.import_module(f"{__name__}.{m}") for m in _MODULES):
            globals().update((export, getattr(module, export)) for export in module.__all__)
            exports += module.__all__
        globals()["__all__"] = exports
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
