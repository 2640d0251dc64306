"""numpy, executed on first attribute access: only the float potential core
(``wardrop._PotentialCore`` and the solves over it, ``infostruct._bwe_solve``
among them) needs arrays.

Without numpy installed, ``np`` is a stand-in whose first attribute access
raises the ``ModuleNotFoundError`` that ``import numpy`` would, so the
commands that need no array still run.
"""

import importlib.util
import sys


class _Missing:
    def __getattr__(self, name):
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")


np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        np = _Missing()
    else:
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(np)
