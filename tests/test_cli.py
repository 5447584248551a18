"""Tests for the ``python -m repro`` command-line driver."""

import pytest

from repro.__main__ import main
from repro.runtime import faults

from tests.example_stgs import CSC_CONFLICT, HANDSHAKE


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "spec.g"
    path.write_text(CSC_CONFLICT)
    return str(path)


def test_default_run(spec, capsys):
    assert main([spec]) == 0
    out = capsys.readouterr().out
    assert "csc-ex" in out
    assert "conformance verified" in out
    assert " = " in out  # equations printed


def test_quiet(spec, capsys):
    assert main([spec, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert " = " not in out


def test_methods(spec, capsys):
    for method in ("modular", "direct", "lavagno"):
        assert main([spec, "--method", method, "--quiet"]) == 0
        assert method in capsys.readouterr().out


def test_engines(spec, capsys):
    for engine in ("dpll", "cdcl", "bdd"):
        assert main([spec, "--engine", engine, "--quiet"]) == 0
        assert engine in capsys.readouterr().out


def test_blif_output(spec, tmp_path, capsys):
    out_path = tmp_path / "out.blif"
    assert main([spec, "--blif", str(out_path), "--quiet"]) == 0
    text = out_path.read_text()
    assert text.startswith(".model csc-ex")
    assert ".names" in text


def test_no_verify(tmp_path, capsys):
    path = tmp_path / "hs.g"
    path.write_text(HANDSHAKE)
    assert main([str(path), "--no-verify", "--quiet"]) == 0
    assert "verified" not in capsys.readouterr().out


def test_bad_method_rejected(spec):
    with pytest.raises(SystemExit):
        main([spec, "--method", "quantum"])


# -- robustness: every failure class exits with a one-line diagnostic ----


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def test_missing_file_is_exit_1_one_liner(capsys):
    assert main(["does/not/exist.g"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read")
    assert len(err.strip().splitlines()) == 1


def test_malformed_g_is_exit_1_one_liner(tmp_path, capsys):
    path = tmp_path / "bad.g"
    path.write_text(".model broken\n.inputs a\n.graph\n")
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert "g-format" in err
    assert len(err.strip().splitlines()) == 1


def test_invalid_stg_is_exit_1(tmp_path, capsys):
    # Parses fine but a only ever rises: a validation failure, not a crash.
    path = tmp_path / "inconsistent.g"
    path.write_text(
        ".model broken\n.inputs a\n.outputs b\n.graph\n"
        "a+ b+\nb+ a+\n.marking { <b+,a+> }\n.end\n"
    )
    assert main([str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_synthesis_failure_is_exit_1(spec, capsys):
    with faults.injected("module-solve"):
        code = main([spec, "--no-fallback", "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synthesis:")


def test_degraded_run_is_exit_2(spec, capsys):
    with faults.injected("module-solve"):
        code = main([spec, "--quiet"])
    assert code == 2
    captured = capsys.readouterr()
    assert "conformance verified" in captured.out
    assert "degraded" in captured.err


def test_timeout_is_exit_3_with_partial_report(spec, capsys):
    assert main([spec, "--timeout", "0", "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("timeout:")


def test_max_states_budget_is_exit_3(spec, capsys):
    assert main([spec, "--max-states", "2", "--quiet"]) == 3
    assert "states" in capsys.readouterr().err


def test_timeout_large_enough_still_succeeds(spec, capsys):
    assert main([spec, "--timeout", "60", "--quiet"]) == 0
    assert "conformance verified" in capsys.readouterr().out


# -- the result cache -------------------------------------------------------

def test_warm_cache_run_is_byte_identical(spec, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main([spec, "--cache-dir", cache]) == 0
    cold = capsys.readouterr().out
    assert main([spec, "--cache-dir", cache]) == 0
    warm = capsys.readouterr().out
    assert warm == cold  # includes the recorded seconds


def _pickled_with_every_cache(path):
    """Rewrite one cache record the way it was written while graphs
    pickled their derived caches: every attribute, excitation cache and
    by-signal index filled in, and no implied-value masks."""
    import copyreg
    import io
    import pickle

    from repro.stategraph import EPSILON, QuotientGraph, StateGraph

    def old_layout(obj):
        if isinstance(obj, StateGraph):
            for state in obj.states():
                obj.excitation(state)
            obj.edges_by_signal(EPSILON)
        state = {
            name: value for name, value in vars(obj).items()
            if name != "_masks"
        }
        return copyreg.__newobj__, (type(obj),), state

    with open(path, "rb") as handle:
        record = pickle.load(handle)
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = dict(copyreg.dispatch_table)
    pickler.dispatch_table[StateGraph] = old_layout
    pickler.dispatch_table[QuotientGraph] = old_layout
    pickler.dump(record)
    assert b"_excitation_cache" in buffer.getvalue()
    with open(path, "wb") as handle:
        handle.write(buffer.getvalue())


def test_record_pickled_with_derived_caches_still_loads(tmp_path, capsys):
    # Graphs no longer pickle their derived caches, and rebuild them on
    # load; a record from before that (same salt: the results are
    # unchanged) must load, verify and print what the cold run printed.
    import os
    from importlib import resources

    from repro import obs

    spec = str(resources.files("repro.data").joinpath("nak-pa.g"))
    cache = str(tmp_path / "cache")
    assert main([spec, "--cache-dir", cache]) == 0
    cold = capsys.readouterr().out
    assert "conformance verified" in cold
    records = [
        os.path.join(root, name)
        for root, _, files in os.walk(cache)
        for name in files
        if name.endswith(".rec")
    ]
    assert records
    for path in records:
        _pickled_with_every_cache(path)
    with obs.tracing() as tracer:
        assert main([spec, "--cache-dir", cache]) == 0
    counters = tracer.counter_totals()
    assert counters["result_cache_hits"] >= 1
    assert "result_cache_stale" not in counters
    assert capsys.readouterr().out == cold


def test_no_cache_ignores_cache_dir(spec, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    import os

    assert main(
        [spec, "--cache-dir", cache, "--no-cache", "--quiet"]
    ) == 0
    assert not os.path.exists(cache)


def test_cache_max_bytes_flag_bounds_the_store(spec, tmp_path, capsys):
    import os

    cache = str(tmp_path / "cache")
    assert main(
        [spec, "--cache-dir", cache, "--cache-max-bytes", "0", "--quiet"]
    ) == 0
    records = [
        name
        for _, _, files in os.walk(cache)
        for name in files
        if name.endswith(".rec")
    ]
    assert records == []  # everything stored was immediately evicted


# -- subcommands and the machine-readable output mode --------------------


def test_json_mode_prints_one_response_document(spec, capsys):
    from repro import api

    assert main([spec, "--json"]) == 0
    out = capsys.readouterr().out
    response = api.from_json(out)
    assert response.status == "ok"
    assert response.model == "csc-ex"
    assert response.verified is True
    assert response.equations  # the narration moved into the document


def test_json_mode_stdout_is_pure_json(spec, tmp_path, capsys):
    import json as json_mod

    out_path = tmp_path / "out.blif"
    assert main([spec, "--json", "--blif", str(out_path)]) == 0
    out = capsys.readouterr().out
    json_mod.loads(out)  # no "wrote ..." chatter mixed in
    assert out_path.exists()


def test_json_mode_timeout_still_emits_document(spec, capsys):
    from repro import api

    assert main([spec, "--json", "--timeout", "0"]) == 3
    captured = capsys.readouterr()
    response = api.from_json(captured.out)
    assert response.status == "timeout"
    assert captured.err.startswith("timeout:")


def test_generate_writes_g_text_to_stdout(capsys):
    from repro.stg import parse_g

    assert main(["generate", "--count", "1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    stg = parse_g(out)
    assert stg.name == "gen-s6-w2-7"


def test_generate_out_dir_and_stats(tmp_path, capsys):
    import json as json_mod
    import os

    out_dir = str(tmp_path / "corpus")
    code = main([
        "generate", "--count", "3", "--seed", "10",
        "--out-dir", out_dir, "--stats",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert sorted(os.listdir(out_dir)) == [
        "gen-s6-w2-10.g", "gen-s6-w2-11.g", "gen-s6-w2-12.g",
    ]
    stats = [json_mod.loads(line) for line in captured.err.splitlines()]
    assert [row["seed"] for row in stats] == [10, 11, 12]


def test_generate_rejects_bad_knobs(capsys):
    assert main(["generate", "--signals", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_generated_spec_round_trips_through_cli(tmp_path, capsys):
    # generate -> file -> synthesise: the two subsystems compose.
    from repro.stg.generate import generate_stg

    generated = generate_stg(signals=4, width=2, csc_density=1.0, seed=3)
    path = tmp_path / "gen.g"
    path.write_text(generated.g_text)
    assert main([str(path), "--quiet"]) == 0
    assert "conformance verified" in capsys.readouterr().out
