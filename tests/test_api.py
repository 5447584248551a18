"""repro.api: the one serialization for service, CLI --json, and replay."""

import json

import pytest

import repro
from repro.api import (
    API_SCHEMA,
    ApiError,
    SynthesisRequest,
    SynthesisResponse,
    from_json,
    response_from_report,
    to_json,
    to_json_bytes,
)

from tests.example_stgs import CSC_CONFLICT, HANDSHAKE


class TestSynthesisRequest:
    def test_defaults(self):
        request = SynthesisRequest(g_text=HANDSHAKE)
        assert request.method == "modular"
        assert request.engine == "hybrid"
        assert request.timeout_seconds is None

    def test_validation(self):
        with pytest.raises(ApiError, match="g_text"):
            SynthesisRequest(g_text="")
        with pytest.raises(ApiError, match="method"):
            SynthesisRequest(g_text=HANDSHAKE, method="quantum")
        with pytest.raises(ApiError, match="engine"):
            SynthesisRequest(g_text=HANDSHAKE, engine="warp")
        with pytest.raises(ApiError, match="sat_mode"):
            SynthesisRequest(g_text=HANDSHAKE, sat_mode="warm")
        with pytest.raises(ApiError, match="timeout_seconds"):
            SynthesisRequest(g_text=HANDSHAKE, timeout_seconds=-1)

    def test_round_trip(self):
        request = SynthesisRequest(
            g_text=CSC_CONFLICT, method="direct", minimize=False,
            timeout_seconds=5.0,
        )
        again = from_json(to_json(request))
        assert again == request

    def test_round_trip_through_text(self):
        request = SynthesisRequest(g_text=HANDSHAKE)
        text = json.dumps(to_json(request))
        assert from_json(text) == request

    def test_to_options_maps_knobs(self):
        request = SynthesisRequest(
            g_text=HANDSHAKE, engine="dpll", minimize=False,
            timeout_seconds=9.0,
        )
        options = request.to_options(cache_dir="server-cache")
        assert options.engine == "dpll"
        assert options.minimize is False
        assert options.cache_dir == "server-cache"
        assert options.budget.max_seconds == 9.0
        assert SynthesisRequest(g_text=HANDSHAKE).to_options().budget is None

    def test_fingerprint_ignores_formatting(self):
        spaced = HANDSHAKE.replace("\n", "\n\n") + "# trailing comment\n"
        a = SynthesisRequest(g_text=HANDSHAKE).fingerprint()
        b = SynthesisRequest(g_text=spaced).fingerprint()
        assert a == b

    def test_fingerprint_tracks_knobs_and_content(self):
        base = SynthesisRequest(g_text=HANDSHAKE).fingerprint()
        assert base != SynthesisRequest(g_text=CSC_CONFLICT).fingerprint()
        assert base != SynthesisRequest(
            g_text=HANDSHAKE, engine="dpll"
        ).fingerprint()
        assert base != SynthesisRequest(
            g_text=HANDSHAKE, timeout_seconds=1.0
        ).fingerprint()


class TestSynthesisResponse:
    def _response(self, **overrides):
        fields = dict(
            model="csc-ex", method="modular", engine="hybrid",
            status="ok", exit_code=0, initial_states=8, final_states=16,
            initial_signals=3, final_signals=4,
            state_signals=("csc0",), literals=12, seconds=0.25,
            equations=("b = a",), modules=(("b", "ok"), ("c", "ok")),
            counters={"modules_ok": 2}, verified=True, cache="miss",
        )
        fields.update(overrides)
        return SynthesisResponse(**fields)

    def test_round_trip(self):
        response = self._response()
        again = from_json(to_json(response))
        assert again == response

    def test_cache_tier_validated(self):
        with pytest.raises(ApiError, match="cache"):
            self._response(cache="warm")

    def test_counters_normalised_sorted(self):
        response = self._response(counters={"b": 2, "a": 1})
        assert response.counters == (("a", 1), ("b", 2))
        assert to_json(response)["counters"] == {"a": 1, "b": 2}

    def test_canonical_bytes_stable(self):
        response = self._response()
        assert to_json_bytes(response) == to_json_bytes(self._response())
        evolved = response.evolve(cache="hit")
        assert to_json_bytes(evolved) != to_json_bytes(response)

    def test_ok_property(self):
        assert self._response(status="ok").ok
        assert self._response(status="degraded", exit_code=2).ok
        assert not self._response(status="error", exit_code=1).ok


class TestFromJsonValidation:
    def test_wrong_schema_rejected(self):
        document = to_json(SynthesisRequest(g_text=HANDSHAKE))
        document["schema"] = "repro-api/0"
        with pytest.raises(ApiError, match="schema"):
            from_json(document)

    def test_unknown_kind_rejected(self):
        document = to_json(SynthesisRequest(g_text=HANDSHAKE))
        document["kind"] = "query"
        with pytest.raises(ApiError, match="kind"):
            from_json(document)

    def test_non_json_text_rejected(self):
        with pytest.raises(ApiError, match="JSON"):
            from_json("{nope")

    def test_unknown_field_rejected(self):
        document = to_json(SynthesisRequest(g_text=HANDSHAKE))
        document["bogus"] = 1
        with pytest.raises(ApiError, match="malformed"):
            from_json(document)


class TestResponseFromReport:
    def test_ok_run(self):
        report = repro.synthesize(CSC_CONFLICT)
        response = response_from_report(
            report, model="csc-ex", verified=True, cache="off"
        )
        assert response.status == "ok"
        assert response.exit_code == 0
        assert response.model == "csc-ex"
        assert response.final_signals == response.initial_signals + 1
        assert response.state_signals
        assert response.equations
        assert dict(response.counters)["modules_ok"] == 2
        assert ("b", "ok") in response.modules
        # The document round-trips through the canonical encoding.
        assert from_json(to_json_bytes(response)) == response

    def test_error_run(self):
        report = repro.synthesize(
            CSC_CONFLICT,
            options=repro.SynthesisOptions(budget=_expired_budget()),
        )
        response = response_from_report(report, model="csc-ex")
        assert response.status == "timeout"
        assert response.exit_code == 3
        assert response.error
        assert response.initial_states is None

    def test_schema_tag_present(self):
        report = repro.synthesize(HANDSHAKE)
        document = to_json(response_from_report(report, model="handshake"))
        assert document["schema"] == API_SCHEMA
        assert document["kind"] == "response"


def _expired_budget():
    from repro.runtime.budget import Budget

    return Budget(max_seconds=0.0)
