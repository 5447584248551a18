"""Expansion of a state graph with state-signal transitions.

Once the SAT solution assigns every state a four-valued value per state
signal, the graph is *expanded* (Section 3.5): every state with an excited
value (``Up``/``Down``) splits into a pre-transition and a post-transition
state joined by the state signal's own edge.  The expanded graph is an
ordinary state graph whose code includes the state signals; Table 1's
"final no. of states" column counts its states.
"""

from __future__ import annotations

from repro.csc.errors import SynthesisError
from repro.csc.values import Value, edge_compatible
from repro.stategraph.graph import EPSILON, StateGraph
from repro.stg.model import FALL, RISE


def expand(graph, assignment, return_origins=False):
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
        codes, edges, initial, state_map = _expand_one(
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


def _expand_one(codes, edges, initial, values, name):
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
