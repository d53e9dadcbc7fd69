"""Every name a stpg module exports in __all__ resolves, so a deletion
cannot leave a stale entry behind."""

import importlib
import pkgutil

import pytest

import stpg


@pytest.mark.parametrize("name", sorted(info.name for info in
                                        pkgutil.iter_modules(stpg.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"stpg.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
