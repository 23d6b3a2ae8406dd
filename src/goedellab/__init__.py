"""goedellab: an arithmetization workbench.

Prime-power coding of formulas, ascending enumeration of unary
formulas, a minimal Hilbert-style proof kernel, numerically certified
diagonalization, assumption-labeled replay of a classic antinomy-style
derivation against the independence argument it shadows, and decision
procedures for the provability logic GL (with K and K4 for contrast).
"""

import sys

__version__ = "1.0.0"

__all__ = [
    "audit",
    "cli",
    "codec",
    "diagonal",
    "errors",
    "formulas",
    "kernel",
    "meta",
    "modal",
]


def __getattr__(name: str):
    """Import a subsystem on first access (PEP 562): `goedellab.modal`
    works without `import goedellab.modal`, while the CLI imports only
    the modules its command runs."""
    if name not in __all__:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # __import__, unlike importlib.import_module, is timed by -X importtime
    __import__(__name__ + "." + name)
    return sys.modules[__name__ + "." + name]
