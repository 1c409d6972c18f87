"""Release-quality meta-tests: documentation and error hygiene."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = []
for module_info in pkgutil.walk_packages(repro.__path__,
                                         prefix="repro."):
    MODULES.append(module_info.name)


def _public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue
        yield name, member


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ or module_name.endswith("__main__"), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_class_and_function_is_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = [name for name, member in _public_members(module)
                    if not inspect.getdoc(member)]
    assert not undocumented, (
        f"{module_name}: missing docstrings on {undocumented}")


def test_exception_hierarchy_is_rooted():
    from repro import errors
    roots = [errors.LexError, errors.ParseError, errors.SemanticError,
             errors.LoweringError, errors.VerificationError,
             errors.InterpreterError, errors.AnalysisError,
             errors.TransformError]
    for exc in roots:
        assert issubclass(exc, errors.ReproError)
    # A step limit is a run status ("step-limit"), not an exception.
    assert not hasattr(errors, "StepLimitExceeded")


def test_package_exports_match_all():
    missing = [name for name in repro.__all__
               if not hasattr(repro, name)]
    assert not missing
