"""The packed-int reachability exploration against the Marking BFS.

``_reference_graph`` is the exploration ``reachability_graph`` ran before
it moved to packed-int markings, kept verbatim as the oracle: it tests
enabledness with ``Marking.covers`` and fires through ``PetriNet.fire``.
The packed exploration must return the same markings and the same edges
in the same order, and where the reference raises, the same exception
with the same message and ``markings_seen``.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import scaling_family
from repro.bench.suite import benchmark_names, load_benchmark
from repro.petrinet import Marking, PetriNet, UnboundedNetError
from repro.petrinet.reachability import (
    DEFAULT_MARKING_LIMIT,
    DEFAULT_TOKEN_BOUND,
    ReachabilityGraph,
    reachability_graph,
)
from repro.stg import parse_g

from tests.example_stgs import ALL, generated_corpus

_CHECKPOINT_STRIDE = 256


def _reference_graph(
    net,
    marking_limit=DEFAULT_MARKING_LIMIT,
    token_bound=DEFAULT_TOKEN_BOUND,
    budget=None,
):
    initial = net.initial_marking
    _check_token_bound(initial, token_bound)
    seen = {initial}
    order = [initial]
    edges = []
    queue = deque([initial])
    processed = 0
    while queue:
        marking = queue.popleft()
        processed += 1
        if budget is not None and processed % _CHECKPOINT_STRIDE == 0:
            budget.checkpoint("reachability")
        for transition in net.enabled(marking):
            successor = net.fire(marking, transition)
            _check_token_bound(successor, token_bound)
            if successor not in seen:
                if budget is not None:
                    budget.check_states(len(seen) + 1, point="reachability")
                if len(seen) >= marking_limit:
                    raise UnboundedNetError(
                        f"more than {marking_limit} reachable markings; "
                        "net is unbounded or the limit is too small",
                        markings_seen=len(seen),
                    )
                seen.add(successor)
                order.append(successor)
                queue.append(successor)
            edges.append((marking, transition, successor))
    return ReachabilityGraph(initial, order, edges)


def _check_token_bound(marking, token_bound):
    for place, count in marking.items():
        if count > token_bound:
            raise UnboundedNetError(
                f"place {place!r} holds {count} tokens, exceeding the "
                f"bound {token_bound}; net is not {token_bound}-bounded"
            )


def _outcome(explore, net, **kwargs):
    """``("ok", markings, edges)`` or ``("raised", type, message, seen)``."""
    try:
        graph = explore(net, **kwargs)
    except UnboundedNetError as exc:
        return ("raised", type(exc), str(exc), exc.markings_seen)
    return ("ok", graph.markings, graph.edges)


def assert_same_exploration(net, **kwargs):
    expected = _outcome(_reference_graph, net, **kwargs)
    assert _outcome(reachability_graph, net, **kwargs) == expected
    return expected


def _named_nets():
    nets = [(name, load_benchmark(name).net) for name in benchmark_names()]
    nets += [(name, parse_g(text).net) for name, text in ALL.items()]
    nets += [(item.name, item.stg.net) for item in generated_corpus()]
    nets += [
        (f"family-{width}", parse_g(scaling_family(width)).net)
        for width in range(1, 5)
    ]
    return nets


@pytest.mark.parametrize(
    "net", [net for _name, net in _named_nets()],
    ids=[name for name, _net in _named_nets()],
)
def test_spec_nets_explore_identically(net):
    outcome = assert_same_exploration(net)
    assert outcome[0] == "ok"


def test_edges_share_the_listed_markings():
    graph = reachability_graph(parse_g(ALL["concurrent"]).net)
    listed = {id(marking) for marking in graph.markings}
    assert graph.markings[0] is graph.initial
    for source, _transition, target in graph.edges:
        assert id(source) in listed and id(target) in listed


def test_limit_and_bound_errors_match():
    net = parse_g(scaling_family(2)).net
    for limit in (1, 2, 7, 57, 58):
        assert_same_exploration(net, marking_limit=limit)
    pump = PetriNet(
        ["p", "q"], ["t"], [("p", "t"), ("t", "p"), ("t", "q")], ["p"]
    )
    for bound in range(4):
        outcome = assert_same_exploration(pump, token_bound=bound)
        assert outcome[0] == "raised"


@st.composite
def random_nets(draw):
    """A small net: multi-token markings, self-loops, empty presets."""
    places = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    transitions = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    arcs = []
    for transition in transitions:
        for place in places:
            if draw(st.booleans()):
                arcs.append((place, transition))
            if draw(st.booleans()):
                arcs.append((transition, place))
    marking = {place: draw(st.integers(0, 3)) for place in places}
    return PetriNet(places, transitions, arcs, marking)


@settings(max_examples=300, deadline=None)
@given(
    net=random_nets(),
    token_bound=st.integers(0, 3),
    marking_limit=st.integers(1, 40),
)
def test_random_nets_explore_identically(net, token_bound, marking_limit):
    assert_same_exploration(
        net, token_bound=token_bound, marking_limit=marking_limit
    )


def test_multi_token_markings_unpack_exactly():
    net = PetriNet(
        ["a", "b"], ["move", "back"],
        [("a", "move"), ("move", "b"), ("b", "back"), ("back", "a")],
        {"a": 3},
    )
    outcome = assert_same_exploration(net, token_bound=3)
    assert outcome[1] == [
        Marking({"a": 3}), Marking({"a": 2, "b": 1}),
        Marking({"a": 1, "b": 2}), Marking({"b": 3}),
    ]
