"""Every docstring example in ``src/repro`` runs and prints what it shows."""

import doctest
import importlib
import pkgutil

import repro


def test_every_docstring_example_holds():
    names = ["repro"] + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    failed, attempted = [], 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        if result.failed:
            failed.append(f"{name}: {result.failed} of {result.attempted}")
    assert not failed, "docstring examples that no longer hold:\n" + "\n".join(failed)
    assert attempted >= 9  # the walk reached the modules that carry examples
