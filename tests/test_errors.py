"""The library's exception hierarchy.

Every exception class defined under ``repro`` must derive from
:class:`~repro.errors.ReproError` — callers catch that one base class,
and the service's job runner retries anything else as transient — or be
named on :data:`ALLOWED` with the reason it stands outside.
"""

import importlib
import inspect
import pkgutil

import repro
from repro.errors import GraphError, ReproError
from repro.graph.circuits import CircuitLimitExceeded

#: Exception classes deliberately outside the hierarchy, and why.
ALLOWED = {
    "repro.engine.sweep.SweepCrossCheckError": (
        "signals a bug in the incremental MinDist sweep, raised only in "
        "cross-check mode; an AssertionError so no handler of domain "
        "failures can absorb it"
    ),
}


def _classes_in(owner, module_name):
    for value in vars(owner).values():
        if inspect.isclass(value) and value.__module__ == module_name:
            yield value
            yield from _classes_in(value, module_name)


def library_exceptions() -> dict[str, type]:
    """Every exception class defined in a ``repro`` module, by name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for cls in _classes_in(module, module.__name__):
            if issubclass(cls, BaseException):
                found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return found


def test_every_library_exception_derives_from_repro_error():
    outside = sorted(
        name
        for name, cls in library_exceptions().items()
        if not issubclass(cls, ReproError) and name not in ALLOWED
    )
    assert outside == [], (
        "derive these from ReproError or allow-list them with a reason"
    )


def test_allow_list_names_only_real_outsiders():
    found = library_exceptions()
    for name, reason in ALLOWED.items():
        assert name in found, f"{name} no longer exists"
        assert not issubclass(found[name], ReproError), name
        assert reason.strip(), name


def test_walk_sees_the_hierarchy():
    found = library_exceptions()
    assert found["repro.errors.ReproError"] is ReproError
    assert "repro.graph.circuits.CircuitLimitExceeded" in found
    assert "repro.errors.SemanticError" in found


def test_circuit_cap_is_a_graph_error():
    assert issubclass(CircuitLimitExceeded, GraphError)
