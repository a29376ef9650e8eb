"""The one cache mechanism: memo stores fn(obj, *args) in obj._cache
under (fn, key of args).  A Keyed argument (a Module) is keyed by its
content_key(), never by itself, so equal content shares an entry, no
reused object id can hit a wrong one, and no argument is kept alive by
the cache.  Any other argument (an int, an algebra) is its own key."""

from __future__ import annotations

import functools


class Keyed:
    """An argument memo keys by content_key(): a hashable value equal
    exactly for objects interchangeable as arguments."""


def memo(fn):
    @functools.wraps(fn)
    def cached(obj, *args):
        key = (fn, tuple([a.content_key() if isinstance(a, Keyed) else a
                          for a in args]))
        cache = obj._cache
        if key not in cache:
            cache[key] = fn(obj, *args)
        return cache[key]
    return cached


def entries(obj, fn=None):
    """The argument keys of the entries memo holds on obj (for fn only,
    when it is given)."""
    return [k[1] for k in obj._cache if fn is None or k[0] is fn.__wrapped__]
