"""Lazy package exports (PEP 562).

Every package ``__init__`` of :mod:`repro` lists its public names once, in
an ``_EXPORTS`` map from name to defining module, and binds::

    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

A name's module is imported on its first attribute access, so importing a
package costs nothing beyond the modules a caller actually uses: ``repro
verify`` loads the simulator and the CNN substrate, never the engine
adapters, the mapping search, the worker pool or the HTTP service.  A new
public name is added to its package's ``_EXPORTS`` map; an entry whose
module is the package's submodule of the same name exports that submodule.
Any other submodule also resolves on attribute access (``import repro;
repro.sim.FunctionalNetworkRunner``), as it did when the packages imported
their submodules eagerly.
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.util import find_spec
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``."""
    namespace: Dict[str, Any] = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module_name = exports.get(name)
        if module_name is None:
            submodule = f"{package}.{name}"
            if name.startswith("_") or find_spec(submodule) is None:
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}")
            return import_module(submodule)
        module = import_module(module_name)
        value = (module if module_name == f"{package}.{name}"
                 else getattr(module, name))
        # bound once: later lookups are plain attribute hits
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
