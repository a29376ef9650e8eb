"""The one cache mechanism: memo stores fn(obj, *args) in obj._cache
under (fn, key of args).  A Keyed argument (a Module) is keyed by its
content_key(), never by itself, so equal content shares an entry, no
reused object id can hit a wrong one, and no argument is kept alive by
the cache.  Any other argument (an int, an algebra) is its own key.

One rule bounds it.  The entries keyed by a module's content are the
ones a long-lived object collects one per partner, so an object holds
at most SIZE of them, least recently used first out.  Entries with no
Keyed argument (a module's own Tr, an algebra's projectives) are one
per object and live as long as it does.

algebra_memo stores fn(m, *args), for a module m, on m.algebra under
the content of m as well: a request repeated on a fresh module of equal
content is answered from the algebra's store.  An answer must not hold
its argument modules, so that the store keeps none of them alive.

counts holds the hits, misses and evictions of the content-keyed
entries since the last reset_counts()."""

from __future__ import annotations

import functools
from collections import OrderedDict

# content-keyed entries one object holds
SIZE = 128
# the key in obj._cache of the object's content-keyed entries
_STORE = "content-keyed"

counts = dict.fromkeys(("hits", "misses", "evictions"), 0)


class Keyed:
    """An argument memo keys by content_key(): a hashable value equal
    exactly for objects interchangeable as arguments."""


def _answer(owner, fn, call, args):
    """fn(*call), kept in owner._cache under (fn, key of args)."""
    parts, keyed = [], False
    for a in args:
        if isinstance(a, Keyed):
            a, keyed = a.content_key(), True
        parts.append(a)
    key = (fn, tuple(parts))
    cache = owner._cache
    if not keyed:
        if key not in cache:
            cache[key] = fn(*call)
        return cache[key]
    store = cache.get(_STORE)
    if store is None:
        store = cache[_STORE] = OrderedDict()
    if key in store:
        counts["hits"] += 1
        store.move_to_end(key)
        return store[key]
    counts["misses"] += 1
    out = store[key] = fn(*call)
    if len(store) > SIZE:
        store.popitem(last=False)
        counts["evictions"] += 1
    return out


def memo(fn):
    key = (fn, ())

    @functools.wraps(fn)
    def cached(obj, *args):
        if args:
            return _answer(obj, fn, (obj,) + args, args)
        # the hot case, an attribute of obj itself, without _answer's loop
        cache = obj._cache
        if key not in cache:
            cache[key] = fn(obj)
        return cache[key]
    return cached


def algebra_memo(fn):
    @functools.wraps(fn)
    def cached(m, *args):
        call = (m,) + args
        return _answer(m.algebra, fn, call, call)
    return cached


def entries(obj, fn=None):
    """The argument keys of the entries memo holds on obj (for fn only,
    when it is given), content-keyed ones last, least recent first."""
    keys = [k for k in obj._cache if isinstance(k, tuple)]
    keys += obj._cache.get(_STORE, ())
    return [k[1] for k in keys if fn is None or k[0] is fn.__wrapped__]


def reset_counts():
    for k in counts:
        counts[k] = 0
