"""The package root exports each module's public list, and only names that exist."""

import importlib

import robust_huber

REEXPORTED = ("huber", "prox", "solver", "estimators", "datagen", "verification", "experiments")


def test_every_name_in_each_module_all_exists_and_is_exported_at_the_root():
    for module_name in REEXPORTED:
        module = importlib.import_module(f"robust_huber.{module_name}")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.__all__ names missing {name}"
            assert getattr(robust_huber, name, None) is getattr(module, name), (
                f"robust_huber does not export {module_name}.{name}"
            )
