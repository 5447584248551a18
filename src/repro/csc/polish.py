"""Post-SAT assignment polishing: shrink excitation regions.

A satisfying SAT assignment is free to mark large swaths of states as
``Up``/``Down``; every excited state splits in two during expansion, so
sprawling excitation regions inflate the final state count and -- because
every split adds a fresh minterm pattern -- the two-level covers.  The
solver has no objective function, so this pass supplies the missing
quality: it walks the excited states and re-stabilises each one (``Up``
to 0 or 1, ``Down`` to 1 or 0) whenever the change provably keeps the
solution correct.

Correctness is the acceptance test :func:`_accepts`: the assignment
stays edge-compatible and realisable, and its expansion stays CSC-clean
and persistent.  The walk never builds that expansion: it starts from
the :class:`~repro.csc.insertion.ExpandedModel` the last repair (or
refinement) round built and re-derives only the part a flip can change,
so every verdict is the gate's verdict on the trial assignment.
Regions therefore shrink from their boundaries inward until only the
genuinely required transition states stay excited.
"""

from __future__ import annotations

from repro import obs
from repro.csc.insertion import CODE
from repro.csc.values import Value

_MAX_PASSES = 4

#: Stable replacement candidates per excited value, in preference order:
#: push the transition later (keep the pre-transition value) first.
_CANDIDATES = {
    CODE[Value.UP]: (CODE[Value.ZERO], CODE[Value.ONE]),
    CODE[Value.DOWN]: (CODE[Value.ONE], CODE[Value.ZERO]),
}


def polish_assignment(assignment, model):
    """Return an equivalent assignment with fewer excited states.

    ``model`` is the :class:`~repro.csc.insertion.ExpandedModel` of
    ``assignment`` (``None`` only without state signals); the walk
    updates it in place.  The result satisfies the same acceptance test
    as the input (:func:`_accepts`); an input that fails it, or keeps
    every entry, is returned as the same object.  Records
    ``polish_trials`` (flips judged after the edge-compatibility
    pre-filter) and ``polish_flips`` (flips kept).
    """
    if assignment.num_signals == 0:
        return assignment
    with obs.span("gate"):
        accepted = _accepts(model)
    if not accepted:
        return assignment

    with obs.span("walk"):
        for _pass in range(_MAX_PASSES):
            changed = False
            for state, row in enumerate(model.rows):
                for k in range(len(row)):
                    for candidate in _CANDIDATES.get(row[k], ()):
                        if model.flip(state, k, candidate):
                            changed = True
                            break
            if not changed:
                break
    obs.add("polish_trials", model.trials)
    obs.add("polish_flips", model.flips)
    return model.assignment() if model.flips else assignment


def _accepts(model):
    """The acceptance test, read off the assignment's expanded model.

    The model exists only for an edge-compatible assignment (ε edges
    included).  The assignment must also fire no state signal before an
    input edge, and its expansion must satisfy CSC (no code with two
    signatures) and be persistent.
    """
    return (
        model.realisable() and not model.conflicts and not model.violations
    )
