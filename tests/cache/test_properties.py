"""Property-based invariants shared by every bounded cache policy."""

import importlib
import inspect
import pkgutil

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.cache
from repro.cache import Cache, FIFOCache, LFUCache, LRUCache, make_cache

POLICIES = [LRUCache, LFUCache, FIFOCache]

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup"]),
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=0.1, max_value=4.0),
    ),
    max_size=120,
)


#: A re-insert that grows object 0 past capacity evicts it, leaving
#: 1.1e-16 of float residue in ``used``; the next insert then tried to
#: evict from an empty cache.
REINSERT_RESIDUE = [
    ("insert", 0, 0.12619400537097175),
    ("insert", 0, 0.6635299757318521),
    ("insert", 0, 0.5),
]

#: A re-insert that shrinks object 0 leaves residue that outlives both
#: objects: evicting them for a capacity-sized object left ``used``
#: above zero, so the loop tried to evict from an empty cache.
SHRINK_RESIDUE = [
    ("insert", 0, 2.0),
    ("insert", 1, 0.4361376328110802),
    ("insert", 0, 0.1),
    ("insert", 2, 3.0),
]


@settings(max_examples=60)
@given(ops=operations, capacity=st.floats(min_value=0.0, max_value=12.0),
       policy=st.sampled_from(POLICIES))
@example(ops=REINSERT_RESIDUE, capacity=0.5, policy=FIFOCache)
@example(ops=REINSERT_RESIDUE, capacity=0.5, policy=LFUCache)
@example(ops=REINSERT_RESIDUE, capacity=0.5, policy=LRUCache)
def test_capacity_never_exceeded(ops, capacity, policy):
    cache = policy(capacity)
    shadow: dict[int, float] = {}
    for op, obj, size in ops:
        if op == "insert":
            evicted = cache.insert(obj, size=size)
            for victim in evicted:
                shadow.pop(victim, None)
            if obj in cache:
                shadow[obj] = size
            else:
                shadow.pop(obj, None)
        else:
            cache.lookup(obj)
        assert sum(shadow.values()) <= capacity + 1e-9
        assert cache.used <= capacity + 1e-9


@settings(max_examples=60)
@given(ops=operations, capacity=st.floats(min_value=0.5, max_value=12.0),
       policy=st.sampled_from(POLICIES))
@example(ops=SHRINK_RESIDUE, capacity=3.0, policy=FIFOCache)
@example(ops=SHRINK_RESIDUE, capacity=3.0, policy=LFUCache)
@example(ops=SHRINK_RESIDUE, capacity=3.0, policy=LRUCache)
def test_membership_matches_shadow_model(ops, capacity, policy):
    """Evictions reported by insert() are exactly the objects removed."""
    cache = policy(capacity)
    shadow: set[int] = set()
    for op, obj, size in ops:
        if op == "insert":
            evicted = cache.insert(obj, size=size)
            assert len(set(evicted)) == len(evicted)
            for victim in evicted:
                assert victim in shadow or victim == obj
                shadow.discard(victim)
            if obj in cache:
                shadow.add(obj)
            else:
                shadow.discard(obj)
        else:
            assert cache.lookup(obj) == (obj in shadow)
    assert set(cache) == shadow
    assert len(cache) == len(shadow)


@settings(max_examples=40)
@given(ops=operations, policy=st.sampled_from(POLICIES))
def test_counters_sum_to_lookups(ops, policy):
    cache = policy(5.0)
    lookups = 0
    for op, obj, size in ops:
        if op == "insert":
            cache.insert(obj, size=size)
        else:
            cache.lookup(obj)
            lookups += 1
    assert cache.hits + cache.misses == lookups


@settings(max_examples=40)
@given(ops=operations, policy=st.sampled_from(POLICIES))
def test_unit_size_cache_never_holds_more_than_capacity_objects(ops, policy):
    cache = policy(4)
    for op, obj, _ in ops:
        if op == "insert":
            cache.insert(obj)
        else:
            cache.lookup(obj)
        assert len(cache) <= 4


@given(st.sampled_from(["lru", "lfu", "fifo"]))
def test_make_cache_dispatch(policy_name):
    cache = make_cache(policy_name, 3)
    cache.insert("x")
    assert "x" in cache


def test_no_cache_policy_is_abstract():
    """Every Cache subclass in the package implements the full interface."""
    modules = [
        importlib.import_module(f"repro.cache.{info.name}")
        for info in pkgutil.iter_modules(repro.cache.__path__)
    ]
    policies = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Cache)
    } - {Cache}
    assert set(repro.cache.POLICIES.values()) <= policies
    assert sorted(c.__name__ for c in policies if inspect.isabstract(c)) == []
