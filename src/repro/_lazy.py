"""Lazy re-exports for the ``repro`` packages (PEP 562).

A package ``__init__`` maps each public name to the submodule that
defines it and hands that table to :func:`lazy_exports`.  A name's
submodule is imported the first time the name is read, so ``import
repro.core.regular_onepass`` no longer imports every other recognizer
through ``repro/core/__init__.py``.  ``from package import *``,
``dir(package)`` and attribute access behave as with eager imports; a
resolved name is cached on the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> "tuple[Callable[[str], object], Callable[[], list[str]]]":
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps a public name to the module defining it, relative
    to ``package`` (``".ring"``).  Reading the name on the package
    imports that module and returns its attribute of the same name.  Any
    other missing name raises :class:`AttributeError`, which also lets
    ``from package import submodule`` fall back to importing the
    submodule.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> "list[str]":
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
