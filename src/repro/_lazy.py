"""Lazy package re-exports (PEP 562).

Importing a submodule runs every parent package's ``__init__`` first.  When
those re-export their submodules' names eagerly, a process that needs one
small module pays for all of them: ``import repro.server.cachesvc`` (a
socket server and the framing of :mod:`repro.pipeline.remote`) would load
the whole frontend, the pipeline and asyncio.  :func:`lazy_exports` builds
the module-level ``__getattr__`` and ``__dir__`` that import each
re-exported name's module on first attribute access instead.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` re-exporting ``{module: names}``.

    A resolved name is bound in the package's namespace, so ``__getattr__``
    runs once per name.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
