"""A gate-level circuit model built from two-level covers.

Each non-input signal is one complex gate computing its next-state
function from the current values of *all* signals (the standard
speed-independent implementation style the paper targets: the state
signals' covers feed back like any other signal).

Gates evaluate on ints: each cover is compiled once to ``(value, care)``
cubes, and a value vector is one int in the bit layout
:mod:`repro.logic.cover` owns (bit ``i`` is ``signals[i]``).
:meth:`Circuit.excited_mask` evaluates every gate on such an int; the
tuple methods pack their vector and call it.
"""

from __future__ import annotations

from repro.logic.cover import pack_minterm


class Circuit:
    """Next-state functions over an ordered signal vector.

    Parameters
    ----------
    signals:
        Ordered tuple of all signal names; every cover's variables follow
        this order (it is the expanded state graph's code order).
    inputs:
        The environment-driven signals (no gate).
    covers:
        Mapping ``signal -> Cover`` for every non-input signal.
    """

    def __init__(self, signals, inputs, covers):
        self.signals = tuple(signals)
        self.inputs = frozenset(inputs)
        unknown = self.inputs - set(self.signals)
        if unknown:
            raise ValueError(f"inputs not in signal vector: {sorted(unknown)}")
        self.non_inputs = tuple(
            s for s in self.signals if s not in self.inputs
        )
        missing = set(self.non_inputs) - set(covers)
        if missing:
            raise ValueError(f"covers missing for: {sorted(missing)}")
        self.covers = {s: covers[s] for s in self.non_inputs}
        for signal, cover in self.covers.items():
            if cover.n != len(self.signals):
                raise ValueError(
                    f"cover for {signal!r} has {cover.n} variables, "
                    f"expected {len(self.signals)}"
                )
        self._index = {s: i for i, s in enumerate(self.signals)}
        # The covers compiled to int cubes; nothing mutates ``covers``
        # afterwards (a mutant is a new Circuit).
        self._cubes = {
            signal: tuple(cube.mask() for cube in cover)
            for signal, cover in self.covers.items()
        }
        self._gates = tuple(
            (1 << self._index[signal], self._cubes[signal])
            for signal in self.non_inputs
        )

    @classmethod
    def from_synthesis(cls, result, stg_inputs):
        """Build from a synthesis result (modular, direct or baseline).

        ``stg_inputs`` are the original STG's input signals; everything
        else in the expanded graph -- outputs, internals, and inserted
        state signals -- gets a gate.
        """
        if result.covers is None:
            raise ValueError(
                "synthesis result has no covers; run with minimize=True"
            )
        return cls(result.expanded.signals, stg_inputs, result.covers)

    # -- evaluation ----------------------------------------------------------

    def index(self, signal):
        return self._index[signal]

    def next_value(self, signal, vector):
        """The gate output of ``signal`` for the given value vector."""
        return _output(self._cubes[signal], pack_minterm(vector))

    def excited_mask(self, code):
        """Bits of the non-inputs whose gate output differs from their
        value in the packed vector ``code``."""
        excited = 0
        for bit, cubes in self._gates:
            for value, care in cubes:
                if not (code ^ value) & care:
                    if not code & bit:
                        excited |= bit
                    break
            else:
                if code & bit:
                    excited |= bit
        return excited

    def excited(self, vector):
        """Non-input signals whose gate output differs from their value."""
        excited = self.excited_mask(pack_minterm(vector))
        return [
            signal for signal in self.non_inputs
            if excited >> self._index[signal] & 1
        ]

    def fire(self, vector, signal):
        """The vector after ``signal`` toggles."""
        i = self._index[signal]
        return vector[:i] + (1 - vector[i],) + vector[i + 1:]

    def __repr__(self):
        return (
            f"Circuit(signals={len(self.signals)}, "
            f"gates={len(self.non_inputs)})"
        )


def _output(cubes, code):
    """0/1 output of a gate's int cubes on a packed value vector."""
    for value, care in cubes:
        if not (code ^ value) & care:
            return 1
    return 0
