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

The conflict analyses read the graph's implied-value masks
(:class:`~repro.stategraph.graph.ImpliedMasks`): per state, the packed
code and two ints holding the signals whose implied value may be 1
(``ones``) and may be 0 (``zeros``).  Comparing two states' implied
values for every output is then a handful of int operations.
"""

from __future__ import annotations

import math

from repro.logic.cover import pack_minterm
from repro.stategraph.graph import ImpliedMasks


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


def _masks(graph):
    """The graph's implied-value masks.

    A view without ``implied_masks`` (a structural
    :class:`~repro.stategraph.view.StateGraphView`) gets them derived
    from its ``code_of`` and ``implied_values``.
    """
    implied_masks = getattr(graph, "implied_masks", None)
    if implied_masks is not None:
        return implied_masks()
    index = {signal: i for i, signal in enumerate(graph.signals)}
    codes, ones, zeros = [], [], []
    for state in graph.states():
        one = zero = 0
        for signal, i in index.items():
            values = graph.implied_values(state, signal)
            one |= (1 in values) << i
            zero |= (0 in values) << i
        codes.append(pack_minterm(graph.code_of(state)))
        ones.append(one)
        zeros.append(zero)
    return ImpliedMasks(codes, ones, zeros, index)


def _analysis(graph, outputs, extra_codes, extra_implied):
    """``(classes, ones, zeros, mask, index)`` of one conflict analysis.

    ``classes`` are the code classes, keyed by the packed code plus the
    ``extra_codes`` row, in first-appearance order with states
    ascending (the order :func:`code_classes` gives).  ``mask`` selects
    the analysed outputs' bits.  Each ``extra_implied`` entry (0/1 or a
    frozenset of them) becomes one more bit of ``ones``/``zeros`` above
    the layout's width, and ``mask`` covers those bits too.
    """
    masks = _masks(graph)
    index = masks.index
    mask = 0
    for output in _analysis_outputs(graph, outputs):
        mask |= 1 << index[output]
    ones, zeros = masks.ones, masks.zeros
    if extra_implied is not None:
        width = len(index)
        extended_ones, extended_zeros = [], []
        longest = 0
        for state, (one, zero) in enumerate(zip(ones, zeros)):
            entries = extra_implied[state]
            one &= mask
            zero &= mask
            bit = 1 << width
            for value in entries:
                if isinstance(value, frozenset):
                    if 1 in value:
                        one |= bit
                    if 0 in value:
                        zero |= bit
                elif value:
                    one |= bit
                else:
                    zero |= bit
                bit <<= 1
            extended_ones.append(one)
            extended_zeros.append(zero)
            longest = max(longest, len(entries))
        ones, zeros = extended_ones, extended_zeros
        mask |= ((1 << longest) - 1) << width

    classes = {}
    codes = masks.codes
    if extra_codes is not None:
        codes = [
            (code, tuple(extra_codes[state]))
            for state, code in enumerate(codes)
        ]
    for state, key in enumerate(codes):
        members = classes.get(key)
        if members is None:
            classes[key] = [state]
        else:
            members.append(state)
    return classes.values(), ones, zeros, mask, index


def _class_conflicts(states, ones, zeros, mask, conflicts):
    """Append one code class's conflicts; True if one is intrinsic.

    Output ``o`` conflicts between ``a`` and ``b`` exactly when its bit
    is set in ``(ones_a | ones_b) & (zeros_a | zeros_b)``: the union of
    their implied values holds both 0 and 1.  A state alone is in
    intrinsic conflict when the bit is set in ``ones & zeros``.  The
    order is fixed: every intrinsic ``(s, s)`` of the class, then every
    pair ``(a, b)`` with ``a`` listed before ``b``.
    """
    one_all = zero_all = 0
    for state in states:
        one_all |= ones[state]
        zero_all |= zeros[state]
    if not one_all & zero_all & mask:
        return False
    masked = [(state, ones[state] & mask, zeros[state] & mask)
              for state in states]
    intrinsic = False
    for state, one, zero in masked:
        if one & zero:
            conflicts.append((state, state))
            intrinsic = True
    for i, (a, one_a, zero_a) in enumerate(masked):
        for b, one_b, zero_b in masked[i + 1:]:
            if (one_a | one_b) & (zero_a | zero_b):
                conflicts.append((a, b))
    return intrinsic


def _signature_count(states, ones, zeros, mask):
    """Distinct ``(ones & mask, zeros & mask)`` signatures of a class."""
    shift = mask.bit_length()
    return len({
        (ones[state] & mask) << shift | zeros[state] & mask
        for state in states
    })


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
    classes, ones, zeros, mask, _index = _analysis(
        graph, outputs, extra_codes, extra_implied
    )
    conflicts = []
    for states in classes:
        _class_conflicts(states, ones, zeros, mask, conflicts)
    return conflicts


def conflicted_outputs(graph, outputs=None, extra_codes=None):
    """The outputs that have a CSC conflict, found in one pass.

    An output has a conflict exactly when, in some code class, its
    implied values are not one single value: two states of the class
    disagree (a pair conflict) or one merged state already carries both
    (an intrinsic conflict).  So a class convicts the outputs whose bits
    are set in ``OR(ones) & OR(zeros)`` over its states.  The result
    equals ``{o for o in outputs if csc_conflicts(graph, [o],
    extra_codes=extra_codes)}``; the pass stops once every output is
    convicted.

    Returns
    -------
    set
        The conflicted subset of ``outputs`` (default: all non-input
        signals).
    """
    outs = _analysis_outputs(graph, outputs)
    classes, ones, zeros, mask, index = _analysis(
        graph, outs, extra_codes, None
    )
    convicted = 0
    for states in classes:
        one = zero = 0
        for state in states:
            one |= ones[state]
            zero |= zeros[state]
        convicted |= one & zero & mask
        if convicted == mask:
            break
    return {output for output in outs if convicted >> index[output] & 1}


def csc_conflicts_and_bound(graph, outputs=None, extra_codes=None,
                            extra_implied=None):
    """Conflict pairs and the refined lower bound, in one pass.

    Equivalent to ``(csc_conflicts(...), csc_lower_bound(...))`` but the
    code classes and masks are built once and shared.  This is the form
    the greedy input-set derivation calls per candidate signal, where
    both numbers gate the same removal decision.
    """
    classes, ones, zeros, mask, _index = _analysis(
        graph, outputs, extra_codes, extra_implied
    )
    conflicts = []
    bound = 0
    for states in classes:
        if _class_conflicts(states, ones, zeros, mask, conflicts):
            bound = math.inf
        elif bound is not math.inf and len(states) > 1:
            count = _signature_count(states, ones, zeros, mask)
            if count > 1:
                bound = max(bound, math.ceil(math.log2(count)))
    return conflicts, bound


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
    classes, ones, zeros, mask, _index = _analysis(
        graph, outputs, extra_codes, extra_implied
    )
    bound = 0
    for states in classes:
        for state in states:
            if ones[state] & zeros[state] & mask:
                return math.inf
        if len(states) > 1:
            count = _signature_count(states, ones, zeros, mask)
            if count > 1:
                bound = max(bound, math.ceil(math.log2(count)))
    return bound
