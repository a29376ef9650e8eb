"""The package namespace: every name in gptau.__all__ is defined, so a
deleted function cannot leave a stale export behind."""

import gptau


def test_every_export_resolves():
    missing = [n for n in gptau.__all__ if not hasattr(gptau, n)]
    assert missing == []
    assert len(set(gptau.__all__)) == len(gptau.__all__)


def test_star_import():
    ns = {}
    exec("from gptau import *", ns)
    assert set(gptau.__all__) <= set(ns)
