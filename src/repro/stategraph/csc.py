"""USC/CSC conflict detection and state-signal lower bounds.

Definitions (paper, Section 2):

* Two states are a **USC pair** when they carry the same binary code.
* A USC pair is a **CSC conflict** when the two states do not enable the
  same non-input signals -- equivalently (for equal codes) when some
  non-input signal has different *implied* values in the two states.

All functions here accept any :class:`~repro.stategraph.view.
StateGraphView` -- a plain :class:`~repro.stategraph.graph.StateGraph`, a
:class:`~repro.stategraph.quotient.QuotientGraph` (whose merged states may
carry *sets* of implied values), or any structural equivalent -- and an
optional ``extra_codes`` argument appending already-inserted state-signal
value bits to every state code.
"""

from __future__ import annotations

import math


def _full_code(graph, state, extra_codes):
    code = graph.code_of(state)
    if extra_codes is None:
        return code
    return code + tuple(extra_codes[state])


def _analysis_outputs(graph, outputs):
    if outputs is None:
        return sorted(graph.non_inputs)
    return sorted(outputs)


def code_classes(graph, extra_codes=None):
    """Group states by (extended) binary code.

    Returns
    -------
    dict
        code tuple -> sorted list of states carrying it.
    """
    classes = {}
    for state in graph.states():
        classes.setdefault(_full_code(graph, state, extra_codes), []).append(
            state
        )
    return classes


def usc_pairs(graph, extra_codes=None):
    """All unordered pairs of distinct states with equal codes."""
    pairs = []
    for states in code_classes(graph, extra_codes).values():
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                pairs.append((a, b))
    return pairs


def _signature(graph, state, outs, extra_implied):
    """Per-state tuple of implied-value sets over outputs + extra signals."""
    parts = [graph.implied_values(state, o) for o in outs]
    if extra_implied is not None:
        for bit in extra_implied[state]:
            parts.append(bit if isinstance(bit, frozenset) else frozenset((bit,)))
    return tuple(parts)


def csc_conflicts(graph, outputs=None, extra_codes=None, extra_implied=None):
    """CSC conflict pairs with respect to ``outputs``.

    Parameters
    ----------
    graph:
        A :class:`StateGraph` or :class:`QuotientGraph`.
    outputs:
        The signals whose implied values must be determined by the code.
        Defaults to all non-input signals of the graph -- the paper's CSC
        definition.  The modular method passes a single output here.
    extra_codes:
        Optional per-state tuples of state-signal value bits, appended to
        the code before comparison.
    extra_implied:
        Optional per-state tuples of implied values of the state signals
        themselves (0/1 or frozensets).  Used by the final whole-graph
        verification, where inserted state signals are outputs too.

    Returns
    -------
    list
        Unordered conflict pairs ``(a, b)`` with ``a < b``, plus *intrinsic*
        conflicts ``(a, a)`` for merged states whose members disagree on
        some output's implied value (possible only for quotient graphs).
    """
    outs = _analysis_outputs(graph, outputs)
    conflicts = []
    for states in code_classes(graph, extra_codes).values():
        implied = {
            state: _signature(graph, state, outs, extra_implied)
            for state in states
        }
        for state in states:
            if any(len(v) > 1 for v in implied[state]):
                conflicts.append((state, state))
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                if any(
                    len(va | vb) > 1
                    for va, vb in zip(implied[a], implied[b])
                ):
                    conflicts.append((a, b))
    return conflicts


def conflicted_outputs(graph, outputs=None, extra_codes=None):
    """The outputs that have a CSC conflict, found in one pass.

    An output has a conflict exactly when, in some code class, its
    implied values are not one single value: two states of the class
    disagree (a pair conflict) or one merged state already carries both
    (an intrinsic conflict).  The result equals ``{o for o in outputs
    if csc_conflicts(graph, [o], extra_codes=extra_codes)}``, but the
    code classes are built once and an output stops being examined as
    soon as one class convicts it.

    Returns
    -------
    set
        The conflicted subset of ``outputs`` (default: all non-input
        signals).
    """
    pending = _analysis_outputs(graph, outputs)
    conflicted = set()
    for states in code_classes(graph, extra_codes).values():
        found = set()
        for output in pending:
            values = set()
            for state in states:
                values |= graph.implied_values(state, output)
                if len(values) > 1:
                    found.add(output)
                    break
        if found:
            conflicted |= found
            pending = [o for o in pending if o not in found]
            if not pending:
                break
    return conflicted


def csc_conflicts_and_bound(graph, outputs=None, extra_codes=None,
                            extra_implied=None):
    """Conflict pairs and the refined lower bound, in one pass.

    Equivalent to ``(csc_conflicts(...), csc_lower_bound(...))`` but the
    per-state implied-value signatures -- the dominant cost -- are
    computed once and shared.  This is the form the greedy input-set
    derivation calls per candidate signal, where both numbers gate the
    same removal decision.
    """
    outs = _analysis_outputs(graph, outputs)
    conflicts = []
    bound = 0
    for states in code_classes(graph, extra_codes).values():
        implied = {
            state: _signature(graph, state, outs, extra_implied)
            for state in states
        }
        signatures = set()
        for state in states:
            signature = implied[state]
            if any(len(v) > 1 for v in signature):
                conflicts.append((state, state))
                bound = math.inf
            signatures.add(signature)
        if bound is not math.inf and len(signatures) > 1:
            bound = max(bound, math.ceil(math.log2(len(signatures))))
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                if any(
                    len(va | vb) > 1
                    for va, vb in zip(implied[a], implied[b])
                ):
                    conflicts.append((a, b))
    return conflicts, bound


def persistence_violations(graph, signals=None):
    """Semi-modularity of non-input signals, checked on the graph itself.

    A non-input signal excited in a state must stay excited (or be the
    one that fired) in every successor; losing the excitation is a
    glitch in some delay assignment.  Input signals are exempt -- the
    environment may withdraw a choice.

    Returns ``(source, target, signal)`` triples; empty when persistent.
    """
    from repro.stategraph.graph import EPSILON as _EPS

    watched = graph.non_inputs if signals is None else frozenset(signals)
    problems = []
    for source, label, target in graph.edges:
        if label is _EPS:
            continue
        fired = label[0]
        after = graph.excitation(target)
        for signal, direction in graph.excitation(source).items():
            if signal == fired or signal not in watched:
                continue
            if after.get(signal) != direction:
                problems.append((source, target, signal))
    return problems


def max_csc(graph, extra_codes=None):
    """``Max_csc``: the largest number of states sharing one code."""
    classes = code_classes(graph, extra_codes)
    if not classes:
        return 0
    return max(len(states) for states in classes.values())


def paper_lower_bound(graph, extra_codes=None):
    """The paper's bound ``ceil(log2(Max_csc))`` on new state signals."""
    largest = max_csc(graph, extra_codes)
    if largest <= 1:
        return 0
    return math.ceil(math.log2(largest))


def csc_lower_bound(graph, outputs=None, extra_codes=None, extra_implied=None):
    """Refined lower bound on the number of new state signals.

    Within one code class, states only need to be told apart when their
    implied-output signatures differ; distinguishing ``k`` distinct
    signatures needs at least ``ceil(log2(k))`` bits.  A merged state with
    an ambiguous signature cannot be repaired by any coding, so the bound
    is infinite (``math.inf``) -- the greedy input-set derivation treats
    that as "removal not allowed".
    """
    outs = _analysis_outputs(graph, outputs)
    bound = 0
    for states in code_classes(graph, extra_codes).values():
        signatures = set()
        for state in states:
            signature = _signature(graph, state, outs, extra_implied)
            if any(len(v) > 1 for v in signature):
                return math.inf
            signatures.add(signature)
        if len(signatures) > 1:
            bound = max(bound, math.ceil(math.log2(len(signatures))))
    return bound
