"""Logic extraction from encoded state graphs.

Once the expanded state graph satisfies CSC, every non-input signal's
next-state function is well-defined on the reachable state codes: the
implied value while excited, the current value while stable (Section 3.5).
The unreachable codes are don't-cares, which is exactly the shape
:func:`repro.logic.espresso.espresso` minimises.
"""

from __future__ import annotations

from repro.logic.cover import unpack_minterm
from repro.logic.espresso import espresso_ints


def _int_tables(graph, signals):
    """``signal -> (onset, offset)`` as sorted lists of packed codes.

    Read from the graph's implied-value masks: a code is in a signal's
    ON-set when some state carrying it implies 1, in its OFF-set when
    some state implies 0, and in both only when the graph violates CSC.
    """
    masks = graph.implied_masks()
    chosen = sorted(graph.non_inputs) if signals is None else list(signals)
    merged = {}
    for code, one, zero in zip(masks.codes, masks.ones, masks.zeros):
        prior = merged.get(code)
        if prior is not None:
            one |= prior[0]
            zero |= prior[1]
        merged[code] = (one, zero)
    rows = sorted(merged.items())
    tables = {}
    for signal in chosen:
        bit = 1 << masks.index[signal]
        onset = [code for code, (one, _zero) in rows if one & bit]
        offset = [code for code, (_one, zero) in rows if zero & bit]
        clash = sum(1 for _code, (one, zero) in rows if one & zero & bit)
        if clash:
            raise ValueError(
                f"signal {signal!r} has contradictory implied values on "
                f"{clash} code(s); the graph does not satisfy CSC"
            )
        tables[signal] = (onset, offset)
    return tables


def next_state_tables(graph, signals=None):
    """ON/OFF minterm sets of each non-input signal's next-state function.

    Parameters
    ----------
    graph:
        A state graph satisfying CSC (e.g. the expanded graph produced by
        synthesis).  Codes are the function inputs.
    signals:
        Signals to extract; defaults to all non-inputs.

    Returns
    -------
    dict
        ``signal -> (onset, offset)``: sorted lists of code tuples.

    Raises
    ------
    ValueError
        If some code implies both 0 and 1 for a signal -- a CSC violation.
    """
    n = len(graph.signals)
    return {
        signal: (
            sorted(unpack_minterm(code, n) for code in onset),
            sorted(unpack_minterm(code, n) for code in offset),
        )
        for signal, (onset, offset) in _int_tables(graph, signals).items()
    }


def synthesize_logic(graph, signals=None):
    """Minimised single-output covers for each non-input signal.

    This mirrors the paper's use of ``espresso -Dso -S1``: every output is
    minimised separately and the area is the summed literal count of the
    unfactored covers.  The ON/OFF tables go to the minimiser as packed
    ints, the layout it works in.

    Returns
    -------
    (dict, int)
        ``covers[signal] -> Cover`` and the total literal count.
    """
    n = len(graph.signals)
    covers = {}
    for signal, (onset, offset) in _int_tables(graph, signals).items():
        covers[signal] = espresso_ints(onset, offset, n)
    total = sum(cover.literals for cover in covers.values())
    return covers, total
