"""The package's public names: ``__all__`` and a star import agree."""

from __future__ import annotations

import graphstores


def test_all_names_resolve_and_are_unique():
    names = graphstores.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(graphstores, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from graphstores import *", namespace)
    assert set(graphstores.__all__) <= namespace.keys()
