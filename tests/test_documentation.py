"""Documentation contract: every public item carries a docstring.

Walks the whole ``repro`` package and asserts that every module, public
class, public function and public method is documented.  This enforces the
"doc comments on every public item" deliverable mechanically.  The type
annotations are part of that contract: every function and method defined
in ``repro`` must have hints that resolve.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import repro

EXEMPT_METHOD_NAMES = {
    # dunder/protocol methods whose semantics are standard
    "__init__", "__repr__", "__str__", "__eq__", "__hash__", "__len__",
    "__iter__", "__contains__", "__getitem__", "__call__", "__and__",
    "__or__", "__rand__", "__ror__", "__invert__", "__new__",
    "__post_init__",
}


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module):
    undocumented = []
    for name, item in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module.__name__:
            continue  # re-export; checked at its home module
        if not (item.__doc__ and item.__doc__.strip()):
            undocumented.append(name)
            continue
        if inspect.isclass(item):
            for method_name, method in vars(item).items():
                if method_name.startswith("_"):
                    continue
                if method_name in EXEMPT_METHOD_NAMES:
                    continue
                if not inspect.isfunction(method):
                    continue
                if method.__doc__ and method.__doc__.strip():
                    continue
                # overriding a documented base method inherits its contract
                inherited = any(
                    (getattr(base, method_name, None) is not None)
                    and getattr(base, method_name).__doc__
                    for base in item.__mro__[1:]
                )
                if not inherited:
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module.__name__}: missing docstrings on {undocumented}"
    )


def _functions(namespace, home):
    """``(qualname, function)`` for every function defined in ``home`` —
    plain, static, class and property accessors, nested classes included."""
    for item in vars(namespace).values():
        if isinstance(item, (staticmethod, classmethod)):
            item = item.__func__
        if isinstance(item, property):
            for accessor in (item.fget, item.fset, item.fdel):
                if accessor is not None and accessor.__module__ == home:
                    yield accessor.__qualname__, accessor
        elif inspect.isfunction(item) and item.__module__ == home:
            yield item.__qualname__, item
        elif (
            inspect.isclass(item)
            and item.__module__ == home
            and item is not namespace
        ):
            yield from _functions(item, home)


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_type_hints_resolve(module):
    """``typing.get_type_hints`` succeeds on every function and method."""
    broken = []
    for qualname, function in _functions(module, module.__name__):
        try:
            typing.get_type_hints(function)
        except Exception as error:  # NameError, TypeError, ...
            broken.append(f"{qualname}: {error!r}")
    assert not broken, f"{module.__name__}: {broken}"
