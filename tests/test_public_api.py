"""The public surface: each layer's ``__all__`` and the package's re-exports
name objects that exist, so a deletion cannot leave a stale entry behind."""

import importlib
import inspect

import pytest

import smoothavg

LAYERS = ("chebyshev", "kernel", "smoothness", "lp", "minimax", "continuum")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"smoothavg.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_are_public_layer_names():
    exported = set()
    for layer in LAYERS:
        exported.update(importlib.import_module(f"smoothavg.{layer}").__all__)
    public = {name for name, value in vars(smoothavg).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public and sorted(public - exported) == []
