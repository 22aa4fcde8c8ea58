"""The package's public surface."""

from __future__ import annotations

import robinrecon


def test_every_exported_name_resolves():
    """A name left in __all__ after its object is gone breaks
    `from robinrecon import *`."""
    namespace = {}
    exec("from robinrecon import *", namespace)
    assert set(robinrecon.__all__) <= set(namespace)
