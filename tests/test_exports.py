"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deletion that leaves a stale export behind fails here instead of at
a user's ``from repro.x import *``.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    exported = 0
    missing = []
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, name):
                missing.append(f"{module.__name__}.{name}")
    assert exported > 200
    assert missing == []
