"""Unit tests of the engine registry (repro.backends.registry)."""

from __future__ import annotations

import pytest

from repro.backends import registry
from repro.backends.registry import (
    EngineSpec,
    available_engines,
    register_engine,
    registered_engines,
    resolve_engine,
    resolve_engine_name,
)
from repro.exceptions import StrategyError, UnknownEngineError


@pytest.fixture
def scratch_registry():
    """Snapshot the global registry and restore it after the test."""
    saved = {family: dict(table) for family, table in registry._REGISTRY.items()}
    try:
        yield
    finally:
        for family, table in registry._REGISTRY.items():
            table.clear()
            table.update(saved[family])


class TestBuiltins:
    def test_builtin_engines_registered_for_both_families(self):
        for family in ("assignment", "queueing"):
            names = [engine.name for engine in registered_engines(family)]
            assert "kernel" in names
            assert "reference" in names
            assert "numba" in names  # listed even when not importable

    def test_available_engines_order_is_priority_descending(self):
        names = available_engines("assignment")
        assert names.index("kernel") < names.index("reference")

    def test_numba_availability_matches_importability(self):
        try:
            import numba  # noqa: F401

            importable = True
        except ImportError:
            importable = False
        for family in ("assignment", "queueing"):
            assert ("numba" in available_engines(family)) == importable

    def test_assignment_reference_is_not_streaming(self):
        assert not resolve_engine("reference", "assignment").supports_streaming
        assert resolve_engine("kernel", "assignment").supports_streaming

    def test_queueing_engines_all_stream(self):
        for engine in registered_engines("queueing"):
            assert engine.supports_streaming

    def test_commit_fns_expose_the_expected_operations(self):
        assignment = resolve_engine("kernel", "assignment").commit_fns
        assert set(assignment) == {
            "two_choice",
            "least_loaded",
            "threshold_hybrid",
            "random_replica",
            "nearest_replica",
        }
        queueing = resolve_engine("kernel", "queueing").commit_fns
        assert set(queueing) == {"window"}


class TestResolution:
    def test_auto_resolves_to_fastest_available(self):
        fastest = available_engines("assignment")[0]
        assert resolve_engine_name("auto", "assignment") == fastest
        assert resolve_engine_name(None, "assignment") == fastest

    def test_explicit_name_resolves_to_itself(self):
        assert resolve_engine_name("reference", "queueing") == "reference"

    def test_engine_spec_object_resolves(self):
        assert resolve_engine_name(EngineSpec("kernel"), "assignment") == "kernel"
        assert (
            resolve_engine_name(EngineSpec("auto", family="queueing"), "queueing")
            == available_engines("queueing")[0]
        )

    def test_engine_spec_family_mismatch_rejected(self):
        with pytest.raises(UnknownEngineError, match="family"):
            resolve_engine(EngineSpec("kernel", family="queueing"), "assignment")

    def test_unknown_name_lists_registered_engines(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            resolve_engine("warp", "assignment")
        message = str(excinfo.value)
        assert "kernel" in message and "reference" in message

    def test_unknown_engine_error_is_a_strategy_error(self):
        # Pre-registry callers catch StrategyError; the subclassing keeps them
        # working across every surface.
        with pytest.raises(StrategyError):
            resolve_engine("warp", "queueing")

    def test_unknown_family_rejected(self):
        with pytest.raises(UnknownEngineError, match="family"):
            resolve_engine("kernel", "graphs")

    def test_non_string_spec_rejected(self):
        with pytest.raises(UnknownEngineError):
            resolve_engine(42, "assignment")


class TestRegistration:
    def test_registering_and_resolving_a_custom_engine(self, scratch_registry):
        calls = []

        def loader():
            calls.append("loaded")
            return {"window": lambda *a, **k: None}

        register_engine(
            "custom",
            family="queueing",
            commit_fns=loader,
            priority=-5,
            description="test backend",
        )
        engine = resolve_engine("custom", "queueing")
        assert engine.available
        assert not calls  # registration and resolution never load the fns
        assert "window" in engine.commit_fns
        assert calls == ["loaded"]
        # Low priority keeps "auto" pointed at the builtin engines.
        assert resolve_engine_name("auto", "queueing") != "custom"

    def test_unavailable_requirement_reported_and_skipped(self, scratch_registry):
        register_engine(
            "ghost",
            family="assignment",
            commit_fns={},
            requires=("definitely_not_a_module",),
            priority=99,
        )
        # Highest priority, but unavailable: "auto" skips it...
        assert resolve_engine_name("auto", "assignment") != "ghost"
        assert "ghost" not in available_engines("assignment")
        # ...and explicit selection explains why.
        with pytest.raises(UnknownEngineError, match="definitely_not_a_module"):
            resolve_engine("ghost", "assignment")

    def test_reserved_and_invalid_names_rejected(self):
        with pytest.raises(UnknownEngineError):
            register_engine("auto", family="assignment", commit_fns={})
        with pytest.raises(UnknownEngineError):
            register_engine("", family="assignment", commit_fns={})

    def test_custom_engine_usable_by_strategies(self, scratch_registry):
        # A backend registered under the assignment family is immediately
        # selectable by every strategy surface: alias the kernel table.
        kernel_fns = dict(resolve_engine("kernel", "assignment").commit_fns)
        register_engine(
            "kernel-alias", family="assignment", commit_fns=kernel_fns, priority=-1
        )
        from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy

        strategy = ProximityTwoChoiceStrategy(radius=2, engine="kernel-alias")
        assert strategy.engine == "kernel-alias"
        assert strategy.engine_supports_streaming


class TestOptionSpecs:
    def test_colon_in_registered_name_rejected(self):
        with pytest.raises(UnknownEngineError, match="option specs"):
            register_engine("bad:name", family="assignment", commit_fns={})

    def test_options_on_a_registered_engine_rejected(self):
        with pytest.raises(UnknownEngineError, match="unknown"):
            resolve_engine("kernel:4", "queueing")

    def test_unknown_base_with_options_lists_registered(self):
        with pytest.raises(UnknownEngineError, match="unknown"):
            resolve_engine("warp:4", "assignment")


class TestRetiredSpecs:
    """Specs of the retired multiprocess backend and the retired option-spec
    syntax fail to resolve, uniformly, instead of degrading silently."""

    @pytest.mark.parametrize("family", ["assignment", "queueing"])
    @pytest.mark.parametrize("spec", ["sharded", "sharded:2:stale", "batch:8"])
    def test_retired_spec_raises_listing_registered(self, spec, family):
        with pytest.raises(UnknownEngineError) as excinfo:
            resolve_engine(spec, family)
        message = str(excinfo.value)
        assert f"unknown {family} engine {spec!r}" in message
        for name in ("reference", "kernel", "batch", "numba"):
            assert name in message.split("registered:", 1)[1]

    @pytest.mark.parametrize("kind", ["assignment", "queueing"])
    def test_recovery_refuses_a_journal_pinning_a_retired_engine(
        self, kind, tmp_path, monkeypatch
    ):
        from repro.service.journal import DispatchJournal, recover_session
        from repro.session.core import CacheNetworkSession
        from repro.session.queueing import QueueingSession

        def refuse(self, *args, **kwargs):
            raise AssertionError("a batch was replayed")

        monkeypatch.setattr(CacheNetworkSession, "dispatch_batch", refuse)
        monkeypatch.setattr(QueueingSession, "dispatch_batch", refuse)
        spec = {
            "kind": kind,
            "seed": 5,
            "engine": "sharded:2",
            "topology": "torus",
            "nodes": 49,
            "files": 20,
            "cache": 3,
            "popularity": "uniform",
            "gamma": None,
            "placement": "partition",
            "mu": 1.0,
            "radius": 3.0,
            "choices": 2,
            "strategy": "proximity_two_choice",
        }
        path = tmp_path / "wal.jsonl"
        times = [0.5, 1.0] if kind == "queueing" else None
        with DispatchJournal.create(path, kind=kind, spec=spec, seed=5) as journal:
            journal.append_batch(0, [1, 2], [3, 4], times, [(2, None)])
        with pytest.raises(UnknownEngineError, match="sharded:2"):
            recover_session(path)
