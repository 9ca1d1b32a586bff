"""The unified error surface: hierarchy, stdlib compatibility and the
historical import paths that must keep resolving."""

from __future__ import annotations

import pytest

import repro
from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError), name
            assert issubclass(exc, Exception), name

    def test_validation_error_is_value_error(self):
        assert issubclass(errors.ValidationError, ValueError)

    def test_backend_unavailable_is_value_error(self):
        assert issubclass(errors.BackendUnavailableError, ValueError)

    def test_service_errors_are_runtime_errors(self):
        assert issubclass(errors.ServiceError, RuntimeError)
        assert issubclass(errors.ServiceOverloadedError, errors.ServiceError)
        assert issubclass(errors.ServiceTimeoutError, errors.ServiceError)

    def test_removed_api_error_is_runtime_error(self):
        assert issubclass(errors.RemovedAPIError, RuntimeError)


class TestRaisedAtBoundaries:
    def test_facade_rejects_bad_algorithm_with_validation_error(
        self, small_grid
    ):
        with pytest.raises(errors.ValidationError):
            repro.reorder(small_grid, algorithm="voodoo")
        # pre-1.2 call sites catch ValueError — still true
        with pytest.raises(ValueError):
            repro.reorder(small_grid, algorithm="voodoo")

    def test_unknown_method_is_backend_unavailable(self, small_grid):
        from repro import backends

        with pytest.raises(errors.BackendUnavailableError, match="quantum"):
            backends.get("quantum")

    def test_one_except_catches_the_whole_surface(self, small_grid):
        caught = []
        for bad_call in (
            lambda: repro.reorder(small_grid, algorithm="nope"),
            lambda: repro.reorder(small_grid, method="nope"),
        ):
            try:
                bad_call()
            except errors.ReproError as exc:
                caught.append(type(exc).__name__)
        assert len(caught) == 2

    def test_removed_entry_points_raise(self, small_grid):
        from repro.core.api import reverse_cuthill_mckee
        from repro.orderings.api import order

        with pytest.raises(errors.RemovedAPIError):
            reverse_cuthill_mckee(small_grid)
        with pytest.raises(errors.RemovedAPIError):
            order(small_grid, "rcm")

    @pytest.mark.parametrize("module, name", [
        ("repro", "ShardedService"),
        ("repro", "ShardedCache"),
        ("repro.service", "ShardedService"),
        ("repro.service", "ShardedCache"),
        ("repro.service", "HashRing"),
        ("repro.service", "Shard"),
    ])
    def test_removed_sharding_names_raise(self, module, name):
        import importlib

        mod = importlib.import_module(module)
        with pytest.raises(errors.RemovedAPIError, match="ReorderService"):
            getattr(mod, name)
        assert name not in mod.__all__
        # an unknown name is still a plain AttributeError
        with pytest.raises(AttributeError):
            getattr(mod, name + "Nope")


class TestHistoricalImportPaths:
    def test_service_package_reexports(self):
        from repro.service import (
            ServiceError,
            ServiceOverloadedError,
            ServiceTimeoutError,
        )

        assert ServiceError is errors.ServiceError
        assert ServiceOverloadedError is errors.ServiceOverloadedError
        assert ServiceTimeoutError is errors.ServiceTimeoutError

    def test_service_core_reexports(self):
        from repro.service import core

        assert core.ServiceError is errors.ServiceError
        assert core.ServiceOverloadedError is errors.ServiceOverloadedError
        assert core.ServiceTimeoutError is errors.ServiceTimeoutError

    def test_errors_module_on_package_root(self):
        assert repro.errors is errors
