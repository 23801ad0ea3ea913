"""Package exports resolved on first access (PEP 562).

A package ``__init__`` lists each exported name once, under the module
that defines it; that module is imported the first time the name is
read.  ``import repro.fleet`` therefore loads what the fleet uses, not
every module a package happens to re-export::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".chip": ("Power7Chip",),
        ".power": ("PowerBreakdown", "PowerModel"),
    })

``from package import Name``, ``package.Name`` and ``from package
import *`` all go through ``__getattr__``.  A resolved name is stored in
the package namespace, so later reads are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps each defining module, relative to ``package`` (for
    example ``".chip"`` or ``".sim.run"``), to the names it exports.
    """
    where = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])
    for name, module in where.items():
        if module.rpartition(".")[2] == name:
            # Importing a submodule binds its name in the package, which
            # would shadow an export of the same name: bind that one now.
            namespace[name] = getattr(importlib.import_module(module, package), name)

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__
