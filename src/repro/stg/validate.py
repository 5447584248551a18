"""STG validation.

Checks the properties synthesis relies on before any state graph is built:

* the underlying net is bounded (exploration terminates) and 1-safe;
* every declared signal actually has transitions;
* rising and falling transitions of every signal alternate consistently
  along every firing sequence: the consistent state assignment of
  Section 2 exists (the same one-pass check state-graph construction
  makes, :func:`repro.stategraph.build.signal_codes`);
* optionally, the net is live (no reachable deadlock and no dead
  transitions), which non-terminating interface circuits require.
"""

from __future__ import annotations

from repro.petrinet.properties import is_live
from repro.petrinet.reachability import reachability_graph
from repro.stg.errors import StgValidationError


def validate_stg(stg, require_live=False, require_safe=True, graph=None):
    """Validate ``stg``; raises :class:`StgValidationError` on failure.

    ``graph`` is the net's :func:`reachability_graph`, when the caller
    already has it.  Returns the reachability graph so callers can
    reuse it.
    """
    net = stg.net
    for signal in stg.signals:
        if not stg.transitions_of(signal):
            raise StgValidationError(
                f"signal {signal!r} is declared but has no transitions"
            )

    if graph is None:
        graph = reachability_graph(net)

    if require_safe:
        for marking in graph.markings:
            if not marking.is_safe():
                raise StgValidationError(
                    f"net is not 1-safe: marking {marking!r} reachable"
                )

    # Imported here: repro.stategraph imports this package.
    from repro.stategraph.build import InconsistentStgError, signal_codes

    # The pass build_state_graph makes; a signal that never fires is a
    # liveness question, left to ``require_live``.
    try:
        signal_codes(stg, graph)
    except InconsistentStgError as exc:
        raise StgValidationError(str(exc)) from None

    if require_live and not is_live(net, graph=graph):
        raise StgValidationError("underlying net is not live")
    return graph
