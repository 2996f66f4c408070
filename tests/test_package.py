"""Tests of the package's public surface: every exported name resolves, once."""

import collections

import extbar


def test_every_export_resolves_and_appears_once():
    repeated = [name for name, k in collections.Counter(extbar.__all__).items() if k > 1]
    assert not repeated
    assert [name for name in extbar.__all__ if not hasattr(extbar, name)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from extbar import *", namespace)
    assert set(extbar.__all__) <= set(namespace)
