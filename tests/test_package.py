"""The package's export list: every name in ``__all__`` resolves."""

from __future__ import annotations

import trustgate


def test_every_exported_name_resolves():
    missing = [name for name in trustgate.__all__
               if not hasattr(trustgate, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(set(trustgate.__all__)) == len(trustgate.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from trustgate import *", namespace)
    assert set(trustgate.__all__) <= set(namespace)
