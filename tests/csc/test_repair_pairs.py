"""Repair rounds on the expanded model, against the expansions they replace.

``_repair`` and ``solve_csc_direct`` judge each round on the assignment's
:class:`~repro.csc.insertion.ExpandedModel`: its ``conflicts`` say
whether the expansion satisfies CSC, and ``conflict_pairs`` names the Σ
state pairs the next solve must separate.  A round used to expand the
graph, search the expansion with ``csc_conflicts`` and map each
conflicting pair of expanded states back to Σ through ``expand``'s
``origins``.  That round, and ``expand`` as it was with
``return_origins``, are kept here verbatim as the reference.  Every
round of real runs must agree with it -- the same verdict and the same
Σ pair set, or the same ``SynthesisError`` -- and so must polish's gate
on each model ``_repair`` hands it.
"""

import itertools
import random
from types import SimpleNamespace

import pytest

from repro.baselines.lavagno import lavagno_synthesis
from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import direct, polish, synthesis
from repro.csc.assignment import Assignment
from repro.csc.errors import IntrinsicConflictError, SynthesisError
from repro.csc.insertion import ExpandedModel, expand
from repro.csc.polish import _accepts
from repro.csc.values import Value, edge_compatible
from repro.runtime.options import SynthesisOptions
from repro.stategraph import build_state_graph, csc_conflicts
from repro.stategraph.graph import StateGraph
from repro.stg import parse_g
from repro.stg.model import FALL, RISE

import tests.stategraph.test_build as test_build
from tests.csc.test_polish import EPSILON_FORK, _reference_accepts
from tests.example_stgs import ALL, CSC_CONFLICT, generated_corpus


def _reference_expand(graph, assignment, return_origins=False):
    """Expand ``graph`` with the state signals of ``assignment``.

    Parameters
    ----------
    graph:
        The complete state graph Σ.
    assignment:
        An edge-compatible :class:`~repro.csc.assignment.Assignment` over
        its states.
    return_origins:
        Also return ``origins`` mapping every expanded state back to the
        Σ state it was split from.

    Returns
    -------
    StateGraph or (StateGraph, list)
        A graph over ``graph.signals + assignment.names`` in which every
        state signal is an ordinary (internal, non-input) signal.  With
        no state signals that graph is ``graph`` itself.
    """
    if not assignment.names:
        if return_origins:
            return graph, list(graph.states())
        return graph
    problems = assignment.check_edge_compatibility(graph)
    if problems:
        source, target, name = problems[0]
        raise SynthesisError(
            f"assignment of {name!r} is not edge-compatible along "
            f"{source}->{target} (plus {len(problems) - 1} more)"
        )

    signals = list(graph.signals)
    non_inputs = set(graph.non_inputs)
    codes = [list(code) for code in graph.codes]
    edges = list(graph.edges)
    initial = graph.initial
    origins = list(graph.states())
    # Remaining four-valued columns, re-indexed as states split.
    columns = [assignment.column(name) for name in assignment.names]

    for index, name in enumerate(assignment.names):
        values = columns[index]
        codes, edges, initial, state_map = _reference_expand_one(
            codes, edges, initial, values, name
        )
        signals.append(name)
        non_inputs.add(name)
        # Re-index later columns and origins: splits inherit from the old
        # state.
        new_origins = [None] * len(codes)
        for old_state, new_states in enumerate(state_map):
            for new_state in new_states:
                new_origins[new_state] = origins[old_state]
        origins = new_origins
        for later in range(index + 1, len(columns)):
            old = columns[later]
            new = [None] * len(codes)
            for old_state, new_states in enumerate(state_map):
                for new_state in new_states:
                    new[new_state] = old[old_state]
            columns[later] = new

    expanded = StateGraph(
        signals,
        [tuple(code) for code in codes],
        edges,
        non_inputs=non_inputs,
        initial=initial,
    )
    if return_origins:
        return expanded, origins
    return expanded


def _reference_expand_one(codes, edges, initial, values, name):
    """Split the states excited for one state signal.

    Returns ``(codes, edges, initial, state_map)`` where ``state_map[old]``
    lists the new ids for each old state (one entry for stable states,
    ``[pre, post]`` for excited ones).
    """
    new_codes = []
    state_map = []
    pre_of = {}
    post_of = {}
    for state, code in enumerate(codes):
        value = values[state]
        if value.excited:
            pre_bit, post_bit = (0, 1) if value is Value.UP else (1, 0)
            pre = len(new_codes)
            new_codes.append(code + [pre_bit])
            post = len(new_codes)
            new_codes.append(code + [post_bit])
            pre_of[state] = pre
            post_of[state] = post
            state_map.append([pre, post])
        else:
            only = len(new_codes)
            new_codes.append(code + [value.cur])
            pre_of[state] = only
            post_of[state] = only
            state_map.append([only])

    new_edges = []
    # The state signal's own transitions.
    for state, value in enumerate(values):
        if value is Value.UP:
            new_edges.append((pre_of[state], (name, RISE), post_of[state]))
        elif value is Value.DOWN:
            new_edges.append((pre_of[state], (name, FALL), post_of[state]))

    for source, label, target in edges:
        x, y = values[source], values[target]
        if not edge_compatible(x, y):
            raise SynthesisError(
                f"values {x} -> {y} of {name!r} are incompatible along "
                f"edge {source}->{target}"
            )
        if x == y:
            # Stable-stable copies once; excited-excited copies both sides
            # (the other signal's firing commutes with this one's).
            new_edges.append((pre_of[source], label, pre_of[target]))
            if x.excited:
                new_edges.append((post_of[source], label, post_of[target]))
        elif not x.excited and y.excited:
            # 0 -> Up or 1 -> Down: enter the target's pre-transition half.
            new_edges.append((pre_of[source], label, pre_of[target]))
        else:
            # Up -> 1 or Down -> 0: the signal fired inside the source.
            new_edges.append((post_of[source], label, pre_of[target]))

    return new_codes, new_edges, pre_of[initial], state_map


def _reference_round(graph, assignment):
    """One repair round's search: ``(violations, Σ pairs)``."""
    expanded, origins = _reference_expand(
        graph, assignment, return_origins=True
    )
    violations = csc_conflicts(expanded)
    new_pairs = set()
    for p, q in violations:
        a, b = sorted((origins[p], origins[q]))
        if a != b:
            new_pairs.add((a, b))
    return violations, new_pairs


def _check_round(graph, assignment):
    """The model of ``assignment`` against the reference round and gate.

    Returns whether the reference round found a conflict, or ``None``
    when ``expand`` refuses the assignment: the model must then refuse
    it with the same error.
    """
    try:
        violations, pairs = _reference_round(graph, assignment)
    except SynthesisError:
        with pytest.raises(SynthesisError) as refused:
            ExpandedModel(graph, assignment)
        with pytest.raises(SynthesisError) as expanded:
            expand(graph, assignment)
        assert str(refused.value) == str(expanded.value)
        assert not _reference_accepts(graph, assignment)
        return None
    model = ExpandedModel(graph, assignment)
    assert bool(model.conflicts) == bool(violations)
    assert model.conflict_pairs() == pairs
    assert _accepts(model) == _reference_accepts(graph, assignment)
    return bool(violations)


@pytest.fixture
def checked(monkeypatch):
    """Check every model a repair or refinement round builds, and every
    polish gate.  Collects each round's verdict (True: a conflict) in
    ``rounds`` and each gate's in ``gates``."""
    seen = SimpleNamespace(rounds=[], gates=[])
    graphs = {}

    def checked_model(graph, assignment):
        seen.rounds.append(_check_round(graph, assignment))
        model = ExpandedModel(graph, assignment)
        graphs[id(model)] = (graph, model)
        return model

    def checked_gate(model):
        verdict = _accepts(model)
        graph, _model = graphs[id(model)]
        assert verdict == _reference_accepts(graph, model.assignment())
        seen.gates.append(verdict)
        return verdict

    monkeypatch.setattr(synthesis, "ExpandedModel", checked_model)
    monkeypatch.setattr(direct, "ExpandedModel", checked_model)
    monkeypatch.setattr(polish, "_accepts", checked_gate)
    return seen


def _modular(sigma, **options):
    return synthesis.modular_synthesis(
        sigma, options=SynthesisOptions(minimize=False, **options)
    )


def _small_table1():
    return [
        name for name in benchmark_names()
        if build_state_graph(load_benchmark(name)).num_states < 100
    ]


def _check_run(checked, result):
    """Every round built a model, and polish judged a gate exactly when
    the run has state signals."""
    assert checked.rounds and None not in checked.rounds
    assert len(checked.gates) == (1 if result.state_signals else 0)


@pytest.mark.parametrize("name", benchmark_names())
def test_table1(name, checked):
    _check_run(checked, _modular(build_state_graph(load_benchmark(name))))


@pytest.mark.parametrize(
    "item", generated_corpus(), ids=lambda item: item.name
)
def test_generated_corpus(item, checked):
    result = _modular(build_state_graph(item.stg))
    assert None not in checked.rounds
    assert len(checked.gates) == (1 if result.state_signals else 0)


@pytest.mark.parametrize("name", sorted(ALL))
def test_examples(name, checked):
    result = _modular(build_state_graph(parse_g(ALL[name])))
    assert None not in checked.rounds
    assert len(checked.gates) == (1 if result.state_signals else 0)


def _every_one_signal_assignment(sigma):
    """The verdicts of every one-signal assignment of ``sigma``."""
    return {
        _check_round(sigma, Assignment(("x",), [(v,) for v in values]))
        for values in itertools.product(list(Value), repeat=sigma.num_states)
    }


def test_epsilon_kept_sigma_with_merged_conflict(checked):
    # The module loop gives up before repair, so put every one-signal
    # assignment of this Σ to the model directly, ε-incompatible ones
    # included.
    sigma = build_state_graph(
        parse_g(test_build.TestDummyContraction.TEXT), contract_dummies=False
    )
    with pytest.raises(IntrinsicConflictError):
        _modular(sigma)
    assert checked.rounds == []
    assert _check_round(sigma, Assignment.empty(sigma.num_states))
    assert {None, True} <= _every_one_signal_assignment(sigma)


def test_epsilon_fork_every_one_signal_assignment():
    # Σ is clean, so a run never reaches a round; every assignment is
    # put to the model directly.
    sigma = build_state_graph(parse_g(EPSILON_FORK), contract_dummies=False)
    assert _every_one_signal_assignment(sigma) == {None, True, False}


def test_conflicts_left_to_repair(checked):
    # Only the clean output b gets a module; c's conflict reaches
    # _repair with no state signal inserted.
    result = _modular(
        build_state_graph(parse_g(CSC_CONFLICT)), output_order=["b"]
    )
    assert result.state_signals > 0
    assert checked.rounds[0] is True and checked.rounds[-1] is False
    _check_run(checked, result)


@pytest.mark.parametrize("name", _small_table1())
def test_direct_and_lavagno_rounds(name, checked):
    graph = build_state_graph(load_benchmark(name))
    options = SynthesisOptions(minimize=False)
    _check_run(checked, direct.direct_synthesis(graph, options=options))
    checked.rounds.clear()
    result = lavagno_synthesis(graph, options=options)
    assert checked.rounds and None not in checked.rounds
    assert result.state_signals > 0


@pytest.mark.parametrize("name", benchmark_names())
def test_dropped_signals(name):
    # Dropping state signals from a solved assignment keeps it
    # edge-compatible and brings conflicts back: rounds with pairs to map.
    graph = build_state_graph(load_benchmark(name))
    assignment = _modular(graph).assignment
    names = assignment.names
    verdicts = [
        _check_round(graph, assignment.restricted(names[:i] + names[i + 1:]))
        for i in range(len(names))
    ]
    verdicts.append(
        _check_round(graph, Assignment.empty(graph.num_states))
    )
    assert None not in verdicts
    assert verdicts[-1] == bool(csc_conflicts(graph))


@pytest.mark.parametrize(
    "name", ["nak-pa", "pe-rcv-ifc-fc", "sbuf-read-ctl", "atod", "pa"]
)
def test_random_single_entry_changes(name):
    # Post-repair assignments with one entry redrawn: regions grow, and
    # edge-incompatible draws must be refused as ``expand`` refuses them.
    graph = build_state_graph(load_benchmark(name))
    assignment = _modular(graph, polish=False).assignment
    rng = random.Random(name)
    verdicts = []
    for _ in range(60):
        rows = [list(row) for row in assignment.values]
        state = rng.randrange(graph.num_states)
        k = rng.randrange(assignment.num_signals)
        rows[state][k] = rng.choice(list(Value))
        verdicts.append(
            _check_round(graph, Assignment(assignment.names, rows))
        )
    assert None in verdicts and False in verdicts


def test_empty_assignment_pairs_are_sigma_pairs():
    # With no state signal the expansion is Σ itself.
    for text in ALL.values():
        sigma = build_state_graph(parse_g(text))
        model = ExpandedModel(sigma, Assignment.empty(sigma.num_states))
        assert model.conflict_pairs() == set(csc_conflicts(sigma))
