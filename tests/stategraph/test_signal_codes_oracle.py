"""The one-pass signal values against the per-signal propagations.

Two references are kept verbatim from before the one-pass
``signal_codes``: ``infer_signal_values`` as ``build_state_graph`` used
it (one edge scan and one propagation per signal) and ``validate_stg``'s
``_check_alternation`` (the same propagation with its own messages).
The pass must accept exactly the specifications each reference accepts
-- the first also requires every signal to fire -- and give equal
values wherever they do.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import scaling_family
from repro.bench.suite import benchmark_names, load_benchmark
from repro.petrinet import PetriNet
from repro.petrinet.reachability import reachability_graph
from repro.stg import StgValidationError, parse_g, validate_stg
from repro.stg.model import (
    DUMMY,
    SignalTransitionGraph,
    SignalType,
    TransitionLabel,
)
from repro.stategraph import InconsistentStgError, build_state_graph
from repro.stategraph.build import infer_signal_values, signal_codes

from tests.example_stgs import ALL, generated_corpus


def _reference_values(stg, graph):
    values = {marking: {} for marking in graph.markings}

    for signal in stg.signals:
        # Seed values from the edges that move this signal.
        pending = []
        for source, transition, target in graph.edges:
            label = stg.label(transition)
            if label.signal != signal:
                continue
            before, after = (0, 1) if label.is_rise else (1, 0)
            for marking, value in ((source, before), (target, after)):
                known = values[marking].get(signal)
                if known is None:
                    values[marking][signal] = value
                    pending.append(marking)
                elif known != value:
                    raise InconsistentStgError(
                        f"signal {signal!r} forced to both values in "
                        f"{marking!r}; transitions do not alternate"
                    )
        if not pending:
            raise InconsistentStgError(
                f"signal {signal!r} never fires; its value is undetermined"
            )
        # Propagate across edges that do not move this signal.
        while pending:
            marking = pending.pop()
            value = values[marking][signal]
            neighbours = [
                (t, other) for t, other in graph.successors(marking)
            ] + [(t, other) for t, other in graph.predecessors(marking)]
            for transition, other in neighbours:
                if stg.label(transition).signal == signal:
                    continue
                known = values[other].get(signal)
                if known is None:
                    values[other][signal] = value
                    pending.append(other)
                elif known != value:
                    raise InconsistentStgError(
                        f"signal {signal!r} has contradictory values at "
                        f"{other!r}"
                    )

    for marking in graph.markings:
        missing = [s for s in stg.signals if s not in values[marking]]
        if missing:
            raise InconsistentStgError(
                f"could not determine values of {missing} at {marking!r}"
            )
    return values


def _reference_alternation(stg, graph):
    for signal in stg.signals:
        values = {}  # marking -> 0/1, only where forced
        # Seed from every edge labelled with this signal, then propagate.
        forced = []
        for source, transition, target in graph.edges:
            label = stg.label(transition)
            if label.signal != signal:
                continue
            before, after = (0, 1) if label.is_rise else (1, 0)
            for marking, value in ((source, before), (target, after)):
                if values.get(marking, value) != value:
                    raise StgValidationError(
                        f"signal {signal!r} does not alternate consistently "
                        f"at {marking!r}"
                    )
                values[marking] = value
            forced.append(source)
            forced.append(target)
        # Propagate across edges that do not move this signal.
        pending = list(values)
        while pending:
            marking = pending.pop()
            value = values[marking]
            for transition, successor in graph.successors(marking):
                if stg.label(transition).signal == signal:
                    continue
                if successor in values:
                    if values[successor] != value:
                        raise StgValidationError(
                            f"signal {signal!r} has inconsistent value at "
                            f"{successor!r}"
                        )
                else:
                    values[successor] = value
                    pending.append(successor)
            for transition, predecessor in graph.predecessors(marking):
                if stg.label(transition).signal == signal:
                    continue
                if predecessor in values:
                    if values[predecessor] != value:
                        raise StgValidationError(
                            f"signal {signal!r} has inconsistent value at "
                            f"{predecessor!r}"
                        )
                else:
                    values[predecessor] = value
                    pending.append(predecessor)


def _accepts(check, *args):
    try:
        check(*args)
    except StgValidationError:
        return False
    return True


def assert_pass_matches_references(stg, graph):
    """Compare on one graph; return whether ``_reference_values``
    accepted it."""
    alternates = _accepts(_reference_alternation, stg, graph)
    assert _accepts(signal_codes, stg, graph) == alternates
    try:
        expected = _reference_values(stg, graph)
    except InconsistentStgError:
        with pytest.raises(InconsistentStgError):
            infer_signal_values(stg, graph)
        return False
    assert infer_signal_values(stg, graph) == expected
    codes, fired = signal_codes(stg, graph)
    assert fired == (1 << len(stg.signals)) - 1
    for marking, code in zip(graph.markings, codes):
        assert [code >> j & 1 for j in range(len(stg.signals))] == [
            expected[marking][s] for s in stg.signals
        ]
    return True


def _named_specs():
    specs = [(name, load_benchmark(name)) for name in benchmark_names()]
    specs += [(name, parse_g(text)) for name, text in ALL.items()]
    specs += [(item.name, item.stg) for item in generated_corpus()]
    specs += [
        (f"family-{width}", parse_g(scaling_family(width)))
        for width in range(1, 5)
    ]
    return specs


@pytest.mark.parametrize(
    "stg", [stg for _name, stg in _named_specs()],
    ids=[name for name, _stg in _named_specs()],
)
def test_spec_values_match(stg):
    graph = reachability_graph(stg.net)
    assert assert_pass_matches_references(stg, graph)
    expected = _reference_values(stg, graph)
    sigma = build_state_graph(stg, contract_dummies=False)
    assert sigma.codes == [
        tuple(expected[marking][s] for s in stg.signals)
        for marking in graph.markings
    ]


INCONSISTENT = {
    # Two consecutive rises of b between a+ and a-.
    "double-rise": """
.model bad
.inputs a
.outputs b
.graph
a+ b+/1
b+/1 b+/2
b+/2 a-
a- a+
.marking { <a-,a+> }
.end
""",
    # b rises on one branch of a choice and not on the other, so the
    # merge place sees b at both values.
    "one-sided-branch": """
.model branch
.inputs a c
.outputs b
.graph
p0 a+ c+
a+ b+
b+ p1
c+ p1
p1 a- c-
a- b-
b- p0
c- p0
.marking { p0 }
.end
""",
}


@pytest.mark.parametrize("text", INCONSISTENT.values(), ids=list(INCONSISTENT))
def test_inconsistent_specs_still_raise(text):
    stg = parse_g(text)
    graph = reachability_graph(stg.net)
    assert not assert_pass_matches_references(stg, graph)
    assert not _accepts(_reference_alternation, stg, graph)
    with pytest.raises(InconsistentStgError):
        build_state_graph(stg)
    with pytest.raises(StgValidationError) as info:
        validate_stg(stg)
    assert type(info.value) is StgValidationError


@st.composite
def labelled_nets(draw):
    """A random labelled net that conserves tokens, so it is bounded.

    Labels repeat freely and may be dummies; most draws are
    inconsistent, some leave a signal that never fires.
    """
    places = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    signals = ["a", "b", "c"][: draw(st.integers(1, 3))]
    choices = [None] + [(s, d) for s in signals for d in "+-"]
    arcs, labels = [], {}
    for i in range(draw(st.integers(1, 5))):
        transition = f"t{i}"
        preset = draw(
            st.lists(st.sampled_from(places), min_size=1, unique=True)
        )
        postset = draw(
            st.lists(
                st.sampled_from(places), min_size=len(preset),
                max_size=len(preset), unique=True,
            )
        )
        arcs += [(p, transition) for p in preset]
        arcs += [(transition, p) for p in postset]
        choice = draw(st.sampled_from(choices))
        labels[transition] = (
            TransitionLabel(None, DUMMY) if choice is None
            else TransitionLabel(*choice)
        )
    marking = {place: draw(st.integers(0, 2)) for place in places}
    net = PetriNet(places, labels, arcs, marking)
    return SignalTransitionGraph(
        net, {s: SignalType.OUTPUT for s in signals}, labels
    )


#: Small consistent specifications the relabelling strategy mutates.
_POOL = [parse_g(text) for text in ALL.values()] + [
    load_benchmark(name)
    for name in ("vbe-ex1", "nousc-ser", "sendr-done", "fifo", "atod")
]


@st.composite
def relabelled_specs(draw):
    """A small specification with up to two transitions relabelled.

    Relabelling a transition to another signal edge or to a dummy
    mostly breaks alternation; unchanged draws stay consistent.
    """
    stg = draw(st.sampled_from(_POOL))
    labels = stg.labels()
    choices = [TransitionLabel(None, DUMMY)] + [
        TransitionLabel(s, d) for s in stg.signals for d in "+-"
    ]
    picked = draw(
        st.lists(st.sampled_from(sorted(labels)), max_size=2, unique=True)
    )
    for transition in picked:
        labels[transition] = draw(st.sampled_from(choices))
    return stg.relabelled(labels)


def _check_random_spec(stg):
    graph = reachability_graph(stg.net)
    if assert_pass_matches_references(stg, graph):
        return
    if not _accepts(_reference_alternation, stg, graph):
        with pytest.raises(StgValidationError):
            build_state_graph(stg)
        with pytest.raises(StgValidationError):
            validate_stg(stg, require_safe=False)


@settings(max_examples=200, deadline=None)
@given(stg=labelled_nets())
def test_random_nets_match(stg):
    _check_random_spec(stg)


@settings(max_examples=300, deadline=None)
@given(stg=relabelled_specs())
def test_relabelled_specs_match(stg):
    _check_random_spec(stg)
