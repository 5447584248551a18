"""Tests for SynthesisOptions, coerce_options, and the facade."""

import pytest

import repro
from repro.baselines import lavagno_synthesis
from repro.csc import direct_synthesis, modular_synthesis
from repro.runtime import OPTION_FIELDS, SynthesisOptions, coerce_options
from repro.runtime.run import run_synthesis
from repro.stg import parse_g

from tests.example_stgs import CSC_CONFLICT


class TestSynthesisOptions:
    def test_frozen(self):
        options = SynthesisOptions()
        with pytest.raises(AttributeError):
            options.engine = "dpll"

    def test_evolve_replaces_fields(self):
        options = SynthesisOptions(engine="dpll")
        changed = options.evolve(minimize=False)
        assert changed.engine == "dpll"
        assert changed.minimize is False
        assert options.minimize is True

    def test_output_order_normalised_to_tuple(self):
        options = SynthesisOptions(output_order=["b", "c"])
        assert options.output_order == ("b", "c")

    def test_per_method_defaults_resolve(self):
        options = SynthesisOptions()
        assert options.resolved_prefix("csc") == "csc"
        assert options.resolved_prefix("lm") == "lm"
        assert options.resolved_max_signals(7) == 7
        assert SynthesisOptions(max_signals=2).resolved_max_signals(7) == 2
        assert SynthesisOptions(signal_prefix="s").resolved_prefix("lm") \
            == "s"

    def test_sat_mode_defaults_incremental(self):
        assert SynthesisOptions().sat_mode == "incremental"
        assert SynthesisOptions(sat_mode="oneshot").sat_mode == "oneshot"

    def test_sat_mode_validated(self):
        with pytest.raises(ValueError, match="sat_mode"):
            SynthesisOptions(sat_mode="warm")

    def test_robustness_knob_defaults(self):
        options = SynthesisOptions()
        assert options.cache_max_bytes is None
        # Synthesis runs serially; there is no in-run pool to size or
        # retry.
        assert not {"jobs", "retries", "retry_backoff"} & OPTION_FIELDS

    def test_robustness_knobs_validated(self):
        with pytest.raises(ValueError, match="cache_max_bytes"):
            SynthesisOptions(cache_max_bytes=-1)
        # Zero is meaningful: evict everything.
        assert SynthesisOptions(cache_max_bytes=0).cache_max_bytes == 0


class TestCoerceOptions:
    def test_none_builds_defaults(self):
        assert coerce_options(None, "x_synthesis") == SynthesisOptions()

    def test_caller_defaults_fill_in(self):
        options = coerce_options(
            None, "run_synthesis", defaults={"fallback": True}
        )
        assert options.fallback is True

    def test_options_returned_as_is(self):
        options = SynthesisOptions(minimize=False)
        assert coerce_options(options, "x_synthesis") is options

    def test_non_options_value_rejected(self):
        with pytest.raises(TypeError, match="SynthesisOptions"):
            coerce_options({"engine": "dpll"}, "x_synthesis")


class TestEntryPoints:
    def test_modular_rejects_legacy_kwargs(self):
        stg = parse_g(CSC_CONFLICT)
        with pytest.raises(TypeError):
            modular_synthesis(stg, minimize=False)

    def test_direct_rejects_legacy_kwargs(self):
        stg = parse_g(CSC_CONFLICT)
        with pytest.raises(TypeError):
            direct_synthesis(stg, minimize=False)

    def test_lavagno_rejects_legacy_kwargs(self):
        stg = parse_g(CSC_CONFLICT)
        with pytest.raises(TypeError):
            lavagno_synthesis(stg, minimize=False)

    def test_run_synthesis_rejects_legacy_kwargs(self):
        stg = parse_g(CSC_CONFLICT)
        with pytest.raises(TypeError):
            run_synthesis(stg, fallback=False)

    def test_options_path_works(self):
        stg = parse_g(CSC_CONFLICT)
        result = modular_synthesis(
            stg, options=SynthesisOptions(minimize=False)
        )
        assert result.literals is None

    def test_custom_signal_prefix_via_options(self):
        stg = parse_g(CSC_CONFLICT)
        result = modular_synthesis(
            stg, options=SynthesisOptions(minimize=False, signal_prefix="z")
        )
        assert all(
            name.startswith("z") for name in result.assignment.names
        )

    def test_run_synthesis_defaults_keep_resilience(self):
        # No options: the orchestrator's historical defaults (fallback
        # ladder + modular degradation on) still apply.
        stg = parse_g(CSC_CONFLICT)
        report = run_synthesis(stg)
        assert report.status == "ok"

    def test_run_synthesis_accepts_options(self):
        stg = parse_g(CSC_CONFLICT)
        report = run_synthesis(
            stg, method="direct", options=SynthesisOptions(minimize=False)
        )
        assert report.status == "ok"
        assert report.result.literals is None

    def test_run_synthesis_accepts_g_text(self):
        report = run_synthesis(
            CSC_CONFLICT, options=repro.SynthesisOptions(minimize=False)
        )
        assert report.status == "ok"

    def test_facade_returns_run_report(self):
        stg = parse_g(CSC_CONFLICT)
        report = repro.synthesize(
            stg, options=repro.SynthesisOptions(minimize=False)
        )
        assert report.status == "ok"
        assert report.result is not None
        assert report.exit_code == 0
