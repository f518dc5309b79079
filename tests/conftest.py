"""Fixtures shared by the test modules."""

import importlib
import pkgutil

import pytest

import affine_shuffles


@pytest.fixture
def lru_caches():
    """Every ``lru_cache`` in the package, by qualified name: found by walking
    each module's functions and its classes' attributes, so a cache added
    anywhere is found without a list to update."""
    caches = {}
    for info in pkgutil.iter_modules(affine_shuffles.__path__):
        module = importlib.import_module(f"affine_shuffles.{info.name}")
        owners = [module] + [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_parameters"):
                    caches[f"{module.__name__}.{name}"] = obj
    return caches


@pytest.fixture
def cold_caches(lru_caches):
    """Clear every ``lru_cache`` before the test and after it: values cached
    before a monkeypatched fault would hide it, and values computed under
    the fault would leak into later tests.  The package memoises only
    through ``lru_cache``s, ``fq``'s fields and sieve included, so a test
    under this fixture starts from what a fresh process remembers."""
    for cache in lru_caches.values():
        cache.cache_clear()
    yield
    for cache in lru_caches.values():
        cache.cache_clear()
