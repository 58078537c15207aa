"""The library boundary: each module's __all__ is its public surface.

A public name is written once, in the __all__ of the module that defines it,
and the package re-exports those lists and __version__, each name once.
"""

import hashlib
import inspect

import pytest

import nrgit

MODULES = ("polytope", "hilbert_mumford", "binary_forms", "envelope", "vgit", "oracle")
# SHA-256 of the sorted public names joined by newlines, __version__ among them;
# it pins the surface without copying the list here
SURFACE = (67, "3e0293603e621bfb9c68fadbaa55b7cd13a1833fe9c8cca2dc5776b683393016")


@pytest.mark.parametrize("name", MODULES)
def test_each_module_lists_names_it_defines(name):
    module = getattr(nrgit, name)
    for public in module.__all__:
        obj = getattr(module, public)  # bound, or AttributeError names it
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, public


def test_the_package_exports_each_list_once():
    names = [public for name in MODULES for public in getattr(nrgit, name).__all__]
    assert len(names) == len(set(names))
    assert len(nrgit.__all__) == len(set(nrgit.__all__))
    assert sorted(nrgit.__all__) == sorted(["__version__", *names])


@pytest.mark.parametrize("name", MODULES)
def test_package_names_are_the_module_objects(name):
    module = getattr(nrgit, name)
    for public in module.__all__:
        assert getattr(nrgit, public) is getattr(module, public), public


def test_star_import_binds_exactly_the_surface():
    namespace = {}
    exec("from nrgit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nrgit.__all__)


def test_the_surface_is_pinned():
    digest = hashlib.sha256("\n".join(sorted(nrgit.__all__)).encode()).hexdigest()
    assert (len(nrgit.__all__), digest) == SURFACE
