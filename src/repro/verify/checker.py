"""Leveled circuit verification with counterexample traces.

The closed loop pairs the circuit's value vector with a state of the
specification's state graph Σ (the environment) and explores every
interleaving under the unbounded-gate-delay (speed-independent) model.
Three verification levels build on each other:

``csc``
    Static only: re-check complete state coding on the expanded state
    graph (two reachable states sharing a code must agree on every
    implied value).  No closed-loop traversal.
``conformance``
    Closed-loop I/O conformance: no *unexpected output* (the circuit
    excites an output Σ forbids), no *missing output* (with the state
    signals settled, an output Σ requires is not excited), no
    *deadlock* of the live specification.
``hazards``
    Conformance plus excitation persistency -- the semi-modularity /
    speed-independence condition: an excited gate must stay excited
    until it fires.  A persistency break on a specification output is
    an *output hazard* (an observable glitch under some delay
    assignment); on an inserted state signal it is a *semi-modularity*
    violation (an internal glitch that corrupts the encoding).

Every closed-loop violation carries a minimal counterexample: the BFS
firing sequence from the reset state to the violation, replayable
step by step with :func:`replay_trace` / :func:`replay_counterexample`.
"""

from __future__ import annotations

from collections import deque

from repro import obs
from repro.logic.cover import pack_minterm, unpack_minterm

#: Verification levels, weakest to strongest.
VERIFY_LEVELS = ("csc", "conformance", "hazards")

#: Counterexample kinds the checker can record.
CEX_KINDS = (
    "csc-conflict",
    "unexpected-output",
    "missing-output",
    "output-hazard",
    "semi-modularity",
    "deadlock",
)

#: Default cap on closed-loop states explored.
DEFAULT_STATE_LIMIT = 200_000

#: Budget checkpoint cadence (states popped between deadline polls).
_CHECK_EVERY = 128


class TraceReplayError(ValueError):
    """A counterexample trace that does not replay on the closed loop."""


class Counterexample:
    """One violation with a minimal reproduction trace.

    ``trace`` is the firing sequence (signal names) from the reset
    state; for persistency kinds its last element is the transition
    whose firing disabled ``signal``.  ``vector`` is the circuit value
    vector at the violating state (before the last firing for
    persistency kinds).  ``detail`` is a human-readable one-liner.
    """

    def __init__(self, kind, signal=None, trace=(), vector=None,
                 detail=None):
        if kind not in CEX_KINDS:
            raise ValueError(f"unknown counterexample kind {kind!r}")
        self.kind = kind
        self.signal = signal
        self.trace = tuple(trace)
        self.vector = tuple(vector) if vector is not None else None
        self.detail = detail

    def as_dict(self):
        """JSON-safe form (journal events, API responses, BENCH rows)."""
        return {
            "kind": self.kind,
            "signal": self.signal,
            "trace": list(self.trace),
            "vector": list(self.vector) if self.vector is not None else None,
            "detail": self.detail,
        }

    def __repr__(self):
        return (
            f"Counterexample({self.kind!r}, signal={self.signal!r}, "
            f"after {len(self.trace)} transitions)"
        )


class VerifyReport:
    """Outcome of one leveled verification pass.

    ``verdict`` is the tri-state the API surfaces: ``True`` when every
    requested check ran clean, ``False`` when a counterexample was
    recorded, ``None`` when the pass was skipped (``skipped`` holds the
    reason, e.g. ``"deadline"`` or ``"no-covers"``).
    """

    def __init__(self, level, checks=(), violations=(), states_explored=0,
                 truncated=False, skipped=None):
        if level not in VERIFY_LEVELS:
            raise ValueError(f"unknown verify level {level!r}")
        self.level = level
        self.checks = tuple(checks)
        self.violations = list(violations)
        self.states_explored = states_explored
        self.truncated = truncated
        self.skipped = skipped

    @property
    def verdict(self):
        if self.violations:
            return False
        if self.skipped is not None or self.truncated:
            # A capped clean pass proves nothing either way.
            return None
        return True

    @property
    def ok(self):
        return self.verdict is True

    def as_dict(self):
        """JSON-safe verdict document for API responses."""
        return {
            "level": self.level,
            "checks": list(self.checks),
            "verdict": self.verdict,
            "states": self.states_explored,
            "truncated": self.truncated,
            "skipped": self.skipped,
            "violations": [cex.as_dict() for cex in self.violations],
        }

    def __repr__(self):
        return (
            f"VerifyReport({self.level!r}, verdict={self.verdict}, "
            f"states={self.states_explored}, "
            f"violations={len(self.violations)})"
        )


class ClosedLoop:
    """The synchronous product of a gate-level circuit and its spec.

    States are ``(vector, spec_state)`` pairs; moves are input firings
    Σ enables, specification-output firings of excited gates (Σ
    advances with the circuit), and state-signal firings (Σ holds
    still).  One move generator, :meth:`packed_moves`, works on packed
    vectors (ints, bit ``i`` is ``circuit.signals[i]``) and serves both
    the checker's BFS and trace replay, so a recorded counterexample
    replays on exactly the semantics that produced it.  :meth:`initial`,
    :meth:`moves` and :meth:`step` are its tuple-vector form.

    Each vector's gates are evaluated once per instance
    (:meth:`excited_mask` memoises them), and Σ's enabled edges once
    per Σ state.
    """

    def __init__(self, circuit, graph):
        spec_signals = set(graph.signals)
        unknown = spec_signals - set(circuit.signals)
        if unknown:
            raise ValueError(
                f"specification signals missing from circuit: "
                f"{sorted(unknown)}"
            )
        self.circuit = circuit
        self.graph = graph
        self.spec_signals = frozenset(spec_signals)
        self.state_signals = tuple(
            s for s in circuit.signals if s not in spec_signals
        )
        self._bit = {s: 1 << i for i, s in enumerate(circuit.signals)}
        self._name = {bit: s for s, bit in self._bit.items()}
        self.state_mask = sum(self._bit[s] for s in self.state_signals)
        self._excited = {}  # packed vector -> excited gates' bits
        self._spec = {}  # Σ state -> (enabled, input moves, outputs)

    # -- the packed form -----------------------------------------------------

    def excited_mask(self, code):
        """Bits of the gates excited at the packed vector ``code``."""
        excited = self._excited.get(code)
        if excited is None:
            excited = self._excited[code] = self.circuit.excited_mask(code)
        return excited

    def signals_of(self, mask):
        """Names of the signals whose bits are set in ``mask``, in
        signal order."""
        names = []
        while mask:
            low = mask & -mask
            names.append(self._name[low])
            mask ^= low
        return names

    def _spec_state(self, spec_state):
        """``(enabled, input moves, required outputs)`` of a Σ state.

        ``enabled`` maps each signal of Σ's out-edges to its target;
        input moves are ``(signal, bit, target)`` and required outputs
        ``(signal, bit)``, both in out-edge order.
        """
        entry = self._spec.get(spec_state)
        if entry is None:
            enabled = {}
            for label, target in self.graph.out_edges(spec_state):
                enabled[label[0]] = target
            inputs, bit_of = self.circuit.inputs, self._bit
            input_moves, outputs = [], []
            for signal, target in enabled.items():
                if signal in inputs:
                    input_moves.append((signal, bit_of[signal], target))
                else:
                    outputs.append((signal, bit_of[signal]))
            entry = self._spec[spec_state] = (enabled, input_moves, outputs)
        return entry

    def packed_initial(self, initial_vector=None):
        """:meth:`initial` with the vector packed."""
        vector, spec_state = self.initial(initial_vector)
        return (pack_minterm(vector), spec_state)

    def packed_moves(self, code, spec_state):
        """``(moves, excited, unexpected)`` at the packed state.

        ``moves`` is a list of ``(fired, bit, next_state)`` with
        ``next_state`` packed; ``excited`` the excited gates' bits;
        ``unexpected`` the excited specification outputs Σ forbids (they
        are *not* moves -- the loop must not be explored past an illegal
        firing).  Inputs come first in Σ's out-edge order, then excited
        gates in signal order.
        """
        # The memo lookups are inlined: this runs once per explored state.
        enabled, input_moves, _outputs = (
            self._spec.get(spec_state) or self._spec_state(spec_state)
        )
        excited = self._excited.get(code)
        if excited is None:
            excited = self.excited_mask(code)
        moves = [
            (signal, bit, (code ^ bit, target))
            for signal, bit, target in input_moves
        ]
        unexpected = []
        rest = excited
        while rest:
            bit = rest & -rest
            rest ^= bit
            signal = self._name[bit]
            if signal in self.spec_signals:
                target = enabled.get(signal)
                if target is None:
                    unexpected.append(signal)
                    continue
                moves.append((signal, bit, (code ^ bit, target)))
            else:
                moves.append((signal, bit, (code ^ bit, spec_state)))
        return moves, excited, unexpected

    def packed_step(self, state, fired):
        """The packed successor after ``fired``; raises
        :class:`TraceReplayError` when ``fired`` is not a legal move."""
        for signal, _bit, successor in self.packed_moves(*state)[0]:
            if signal == fired:
                return successor
        raise TraceReplayError(
            f"{fired!r} is not enabled at the replayed state"
        )

    def unpack(self, state):
        """The tuple-vector form of a packed state."""
        code, spec_state = state
        return (unpack_minterm(code, len(self.circuit.signals)), spec_state)

    # -- the tuple form ------------------------------------------------------

    def initial(self, initial_vector=None):
        """The reset state ``(vector, graph.initial)``."""
        if initial_vector is None:
            initial_vector = reset_vector(self.circuit, self.graph)
        else:
            initial_vector = tuple(initial_vector)
            if len(initial_vector) != len(self.circuit.signals):
                raise ValueError("initial vector length mismatch")
        return (initial_vector, self.graph.initial)

    def spec_enabled(self, spec_state):
        """``signal -> target spec state`` for Σ's outgoing edges."""
        return dict(self._spec_state(spec_state)[0])

    def moves(self, state):
        """:meth:`packed_moves` at a ``(vector, spec_state)`` state.

        ``moves`` is a list of ``(fired, next_state)`` pairs and
        ``excited`` the excited gate names.
        """
        vector, spec_state = state
        moves, excited, unexpected = self.packed_moves(
            pack_minterm(vector), spec_state
        )
        return (
            [(fired, self.unpack(successor))
             for fired, _bit, successor in moves],
            self.signals_of(excited),
            unexpected,
        )

    def step(self, state, fired):
        """The successor after ``fired``; raises
        :class:`TraceReplayError` when ``fired`` is not a legal move."""
        vector, spec_state = state
        return self.unpack(
            self.packed_step((pack_minterm(vector), spec_state), fired)
        )


def reset_vector(circuit, graph):
    """Reset values: the specification's initial code for the original
    signals, the gate fixpoint from zero for inserted state signals."""
    values = dict(zip(graph.signals, graph.code_of(graph.initial)))
    for signal in circuit.signals:
        values.setdefault(signal, 0)
    state_signals = [s for s in circuit.signals if s not in graph.signals]
    for _ in range(len(state_signals) + 1):
        vector = tuple(values[s] for s in circuit.signals)
        changed = False
        for signal in state_signals:
            value = circuit.next_value(signal, vector)
            if value != values[signal]:
                values[signal] = value
                changed = True
        if not changed:
            break
    return tuple(values[s] for s in circuit.signals)


def check_circuit(circuit, graph, level="hazards", budget=None,
                  max_states=DEFAULT_STATE_LIMIT, max_violations=10,
                  initial_vector=None):
    """Model-check ``circuit`` against environment ``graph`` (Σ).

    Parameters
    ----------
    circuit:
        A :class:`~repro.verify.circuit.Circuit`.
    graph:
        The specification's state graph over the *original* signals;
        its signal set must be a subset of the circuit's (the extras
        are the inserted state signals).
    level:
        ``"conformance"`` or ``"hazards"`` (the static ``"csc"`` level
        has no closed loop to explore; see :func:`verify_result`).
    budget:
        Optional :class:`~repro.runtime.budget.Budget`; the traversal
        polls its deadline and state cap cooperatively and lets
        :class:`~repro.runtime.budget.BudgetExhaustedError` propagate.
    max_states:
        Exploration cap; exceeding it sets ``report.truncated`` instead
        of raising, so a capped pass still reports what it saw.
    max_violations:
        Stop exploring after this many *distinct* ``(kind, signal)``
        violations; BFS order makes each recorded trace minimal.
    initial_vector:
        Reset values for every circuit signal; defaults to
        :func:`reset_vector`.

    Returns
    -------
    VerifyReport
        At the requested level, with one minimal
        :class:`Counterexample` per distinct violation.
    """
    if level not in ("conformance", "hazards"):
        raise ValueError(
            f"check_circuit level must be 'conformance' or 'hazards', "
            f"not {level!r}"
        )
    loop = ClosedLoop(circuit, graph)
    check_hazards = level == "hazards"
    initial = loop.packed_initial(initial_vector)
    # The loop's per-vector memo, read inline in the once-per-move
    # persistency check.
    evaluated = loop._excited

    seen = {initial: None}  # state -> (previous state, fired signal)
    queue = deque([initial])
    violations = []
    flagged = set()  # (kind, signal) already recorded
    truncated = False
    pops = 0

    def trace_of(state):
        trace = []
        while seen[state] is not None:
            state, fired = seen[state]
            trace.append(fired)
        return tuple(reversed(trace))

    def record(kind, signal, state, detail, fired=None):
        if (kind, signal) in flagged:
            return
        flagged.add((kind, signal))
        trace = trace_of(state)
        if fired is not None:
            trace += (fired,)
        violations.append(Counterexample(
            kind, signal, trace, vector=loop.unpack(state)[0],
            detail=detail,
        ))

    while queue and len(violations) < max_violations:
        if len(seen) > max_states:
            truncated = True
            break
        if budget is not None:
            pops += 1
            if pops % _CHECK_EVERY == 0:
                budget.checkpoint("verify")
            budget.check_states(len(seen), point="verify")
        state = queue.popleft()
        moves, excited, unexpected = loop.packed_moves(*state)

        for signal in unexpected:
            record(
                "unexpected-output", signal, state,
                f"circuit excites {signal} but the specification does "
                f"not enable it",
            )

        # Missing-output check: with the state signals settled, the
        # excited outputs must cover everything Σ enables.
        if not excited & loop.state_mask:
            for signal, bit in loop._spec[state[1]][2]:
                if not excited & bit:
                    record(
                        "missing-output", signal, state,
                        f"state signals settled but {signal} is not "
                        f"excited although the specification requires it",
                    )

        if not moves:
            record(
                "deadlock", None, state,
                "closed loop is stuck although the specification is live",
            )
            continue

        for fired, bit, successor in moves:
            if check_hazards:
                # Excitation persistency (semi-modularity): every gate
                # excited before the firing stays excited or fired.
                after = evaluated.get(successor[0])
                if after is None:
                    after = loop.excited_mask(successor[0])
                lost = excited & ~bit & ~after
                for signal in loop.signals_of(lost) if lost else ():
                    kind = (
                        "output-hazard"
                        if signal in loop.spec_signals
                        else "semi-modularity"
                    )
                    record(
                        kind, signal, state,
                        f"firing {fired} disables the excited "
                        f"gate {signal} without it firing",
                        fired,
                    )
            if successor not in seen:
                seen[successor] = (state, fired)
                queue.append(successor)

    obs.add("verify_vectors", len(evaluated))
    return VerifyReport(
        level,
        checks=(
            ("conformance", "persistency")
            if check_hazards else ("conformance",)
        ),
        violations=violations,
        states_explored=len(seen),
        truncated=truncated,
    )


def verify_result(result, stg=None, level="hazards", budget=None,
                  max_states=DEFAULT_STATE_LIMIT, max_violations=10):
    """Verify a synthesis result at the requested level.

    Always re-checks complete state coding on the expanded graph (the
    static ``csc`` check); the closed-loop levels additionally build
    the gate-level circuit from the result's covers and model-check it
    against the result's own specification graph.

    ``stg`` supplies the input-signal set; when omitted it is derived
    from the specification graph's non-input partition.  Returns a
    :class:`VerifyReport`; a result without covers (``minimize=False``)
    skips the closed-loop levels with ``skipped="no-covers"``.
    """
    from repro.stategraph.csc import csc_conflicts
    from repro.verify.circuit import Circuit

    if level not in VERIFY_LEVELS:
        raise ValueError(
            f"level must be one of {VERIFY_LEVELS}, not {level!r}"
        )
    violations = []
    with obs.span("csc"):
        conflicts = csc_conflicts(result.expanded)[:max_violations]
    for first, second in conflicts:
        violations.append(
            Counterexample(
                "csc-conflict",
                vector=result.expanded.code_of(first),
                detail=f"states {first} and {second} share a code but "
                       f"disagree on excited non-inputs",
            )
        )
    if level == "csc" or violations:
        return VerifyReport(level, checks=("csc",), violations=violations)

    if result.covers is None:
        return VerifyReport(
            level, checks=("csc",), skipped="no-covers"
        )
    inputs = stg.inputs if stg is not None else (
        set(result.graph.signals) - set(result.graph.non_inputs)
    )
    circuit = Circuit.from_synthesis(result, inputs)
    initial_vector = tuple(result.expanded.code_of(result.expanded.initial))
    with obs.span("explore"):
        closed = check_circuit(
            circuit, result.graph, level=level, budget=budget,
            max_states=max_states, max_violations=max_violations,
            initial_vector=initial_vector,
        )
    return VerifyReport(
        level,
        checks=("csc",) + closed.checks,
        violations=closed.violations,
        states_explored=closed.states_explored,
        truncated=closed.truncated,
    )


def _replay(loop, trace, initial_vector):
    """The packed states visited firing ``trace`` from reset."""
    state = loop.packed_initial(initial_vector)
    states = [state]
    for fired in trace:
        state = loop.packed_step(state, fired)
        states.append(state)
    return states


def replay_trace(circuit, graph, trace, initial_vector=None):
    """Fire ``trace`` from reset; returns the visited state list.

    Raises :class:`TraceReplayError` at the first step that is not a
    legal closed-loop move, so a trace that "replays" is certified
    legal move by move -- the trace-validity property the test suite
    pins.
    """
    loop = ClosedLoop(circuit, graph)
    return [loop.unpack(state)
            for state in _replay(loop, trace, initial_vector)]


def replay_counterexample(circuit, graph, cex, initial_vector=None):
    """Re-manifest a counterexample step by step; ``True`` when the
    violation reproduces at the end of its trace.

    Persistency kinds replay all but the last firing, confirm the
    victim is excited, fire the last transition, and confirm the victim
    was disabled without firing; the conformance kinds replay the whole
    trace and re-evaluate their defining condition at the final state.
    Raises :class:`TraceReplayError` when the trace itself is illegal.
    """
    loop = ClosedLoop(circuit, graph)

    def excited(state):
        return loop.signals_of(loop.excited_mask(state[0]))

    if cex.kind == "csc-conflict":
        raise TraceReplayError(
            "csc-conflict counterexamples are static (no firing trace)"
        )
    if cex.kind in ("output-hazard", "semi-modularity"):
        if not cex.trace:
            return False
        state = _replay(loop, cex.trace[:-1], initial_vector)[-1]
        if cex.signal not in excited(state):
            return False
        last = cex.trace[-1]
        if last == cex.signal:
            return False
        return cex.signal not in excited(loop.packed_step(state, last))

    state = _replay(loop, cex.trace, initial_vector)[-1]
    enabled = loop.spec_enabled(state[1])
    names = excited(state)
    if cex.kind == "unexpected-output":
        return cex.signal in names and cex.signal not in enabled
    if cex.kind == "missing-output":
        settled = all(s not in names for s in loop.state_signals)
        return (
            settled
            and cex.signal in enabled
            and cex.signal not in circuit.inputs
            and cex.signal not in names
        )
    if cex.kind == "deadlock":
        return not loop.packed_moves(*state)[0]
    raise TraceReplayError(f"unknown counterexample kind {cex.kind!r}")
