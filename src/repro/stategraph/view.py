"""The read-only analysis interface shared by state graphs and quotients.

The CSC analyses (:mod:`repro.stategraph.csc`), the SAT-CSC encoder
(:mod:`repro.csc.sat_csc`) and the input-set derivation all accept "a
state graph or a quotient graph" -- historically an informal contract:
:class:`~repro.stategraph.quotient.QuotientGraph` copies whichever
attributes of :class:`~repro.stategraph.graph.StateGraph` the analyses
happened to touch.  :class:`StateGraphView` makes that contract explicit.

Anything implementing this protocol -- a concrete graph, a quotient, or
a test double -- can be analysed for USC/CSC conflicts, lower bounds and
SAT encodings.  The one deliberate asymmetry of the shared interface is
:meth:`~StateGraphView.implied_values`: a plain graph always returns a
singleton set, while a quotient's merged state may return two values
(an intrinsic conflict).  Analyses must treat the set-valued form as
authoritative; ``implied_value`` (singular) is *not* part of the view.

One member is optional, and so not declared on the protocol:
``implied_masks()``, the same implied values packed into per-state ints
(:class:`~repro.stategraph.graph.ImpliedMasks`).  Both concrete graphs
provide it, cached; the conflict analyses derive it from ``code_of`` and
``implied_values`` for a view that does not.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class StateGraphView(Protocol):
    """What the conflict analyses and the SAT encoder actually require.

    Implemented by :class:`~repro.stategraph.graph.StateGraph` and
    :class:`~repro.stategraph.quotient.QuotientGraph`.  ``isinstance``
    checks work (the protocol is runtime checkable), but the contract is
    structural: any object with these members is analysable.
    """

    @property
    def signals(self):
        """Ordered tuple of code signal names."""
        ...

    @property
    def non_inputs(self):
        """Frozenset of non-input signals (subset of ``signals``)."""
        ...

    @property
    def num_states(self):
        """Number of states; state ids are ``range(num_states)``."""
        ...

    @property
    def edges(self):
        """List of ``(source, label, target)`` triples."""
        ...

    def states(self):
        """Iterable of all state ids."""
        ...

    def code_of(self, state):
        """Binary code tuple of ``state``, aligned with ``signals``."""
        ...

    def excitation(self, state):
        """Mapping ``signal -> direction`` of transitions enabled in ``state``."""
        ...

    def implied_values(self, state, signal):
        """Frozenset of possible next-state values of ``signal`` in ``state``.

        A singleton for plain graphs; a merged (quotient) state may carry
        both values when the merge lost the signal's logic function.
        """
        ...
