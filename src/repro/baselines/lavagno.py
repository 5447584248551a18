"""A state-table baseline in the spirit of Lavagno & Moon et al. (DAC'92).

The original algorithm transforms the STG into an FSM state table and
solves the state assignment problem with state minimisation and critical
race-free assignment, inserting state signals into the STG one at a time.
Its full machinery is a synthesis system of its own; this module
reimplements its *working style* on our shared substrate (DESIGN.md §4):

* it operates on the whole state graph at once (no partitioning);
* it inserts state signals **sequentially** -- each round picks the
  same-code class with the most unresolved conflicts and solves a
  single-signal assignment problem for it, rather than jointly optimising
  all signals the way the monolithic SAT formulation does;
* every round solves a whole-graph constraint problem, so the per-round
  formulas stay large -- which is why the historical tool was an order of
  magnitude slower than the modular method on the big benchmarks.

The outcome mirrors the Table-1 "Lavagno and Moon et al." column's
qualitative profile: it completes on everything (given budget), is slower
than the modular method on large inputs, and its covers are generally
comparable but found along a different trade-off.
"""

from __future__ import annotations

from repro import obs
from repro.csc.assignment import Assignment
from repro.csc.errors import SynthesisError
from repro.csc.solve import solve_state_signals
from repro.obs import Stopwatch
from repro.stategraph.build import build_state_graph
from repro.stategraph.csc import csc_conflicts
from repro.stategraph.graph import StateGraph

_MAX_ROUNDS = 16


class LavagnoResult:
    """Outcome of :func:`lavagno_synthesis`.

    Attributes
    ----------
    graph / expanded:
        The complete state graph and its final expansion.
    assignment:
        The accumulated state-signal assignment.
    rounds:
        Per-insertion solver statistics
        (list of :class:`~repro.csc.solve.AttemptStats` lists).
    covers / literals:
        Minimised covers and total literal count (``None`` when
        ``minimize=False``).
    seconds:
        End-to-end wall-clock time.
    """

    def __init__(self, graph, expanded, assignment, rounds, covers,
                 literals, seconds):
        self.graph = graph
        self.expanded = expanded
        self.assignment = assignment
        self.rounds = rounds
        self.covers = covers
        self.literals = literals
        self.seconds = seconds

    @property
    def initial_states(self):
        return self.graph.num_states

    @property
    def final_states(self):
        return self.expanded.num_states

    @property
    def initial_signals(self):
        return len(self.graph.signals)

    @property
    def final_signals(self):
        return len(self.graph.signals) + self.assignment.num_signals

    @property
    def state_signals(self):
        return self.assignment.num_signals

    def __repr__(self):
        return (
            f"LavagnoResult(states {self.initial_states}->"
            f"{self.final_states}, signals {self.initial_signals}->"
            f"{self.final_signals}, literals={self.literals}, "
            f"{self.seconds:.2f}s)"
        )


def lavagno_synthesis(stg, options=None):
    """Synthesise by sequential whole-graph state-signal insertion.

    Parameters
    ----------
    stg:
        A :class:`~repro.stg.model.SignalTransitionGraph` or a prebuilt
        :class:`~repro.stategraph.graph.StateGraph`.
    options:
        A :class:`~repro.runtime.options.SynthesisOptions`; this method
        reads ``limits`` (SAT budget per round), ``minimize`` (also
        derive covers and literal counts), ``engine`` and
        ``signal_prefix`` (default ``"lm"``).

    Returns
    -------
    LavagnoResult
    """
    from repro.runtime.options import coerce_options

    opts = coerce_options(options, "lavagno_synthesis")
    limits = opts.limits
    engine = opts.engine
    signal_prefix = opts.resolved_prefix("lm")
    watch = Stopwatch()
    if isinstance(stg, StateGraph):
        graph = stg
    else:
        graph = build_state_graph(stg)

    assignment = Assignment.empty(graph.num_states)
    rounds = []
    for _round in range(_MAX_ROUNDS):
        conflicts = csc_conflicts(
            graph,
            extra_codes=assignment.cur_bits(),
            extra_implied=assignment.implied_bits(),
        )
        if not conflicts:
            break
        target = _largest_class_conflicts(graph, assignment, conflicts)
        with obs.span("lavagno_round", round=_round):
            outcome = solve_state_signals(
                graph,
                extra_codes=assignment.cur_bits(),
                extra_implied=assignment.implied_bits(),
                conflict_pairs=target,
                limits=limits,
                engine=engine,
                on_limit="skip",
                sat_mode=opts.sat_mode,
            )
        names = [
            f"{signal_prefix}{assignment.num_signals + k}"
            for k in range(outcome.m)
        ]
        assignment = assignment.extended(names, outcome.rows)
        rounds.append(outcome.attempts)
    else:
        raise SynthesisError(
            f"sequential insertion did not converge in {_MAX_ROUNDS} rounds"
        )

    # Expansion-level violations (interleaving corner cases) get the same
    # verify-and-repair treatment as the other methods.
    from repro.csc.synthesis import _checked_expansion, _repair

    with obs.span("repair"):
        assignment, _model, repair_attempts = _repair(
            graph, assignment, limits, 12, signal_prefix, engine
        )
    if repair_attempts:
        rounds.append(repair_attempts)
    expanded = _checked_expansion(
        graph, assignment, "lavagno baseline result"
    )

    covers = literals = None
    if opts.minimize:
        from repro.logic.extract import synthesize_logic

        with obs.span("minimize"):
            covers, literals = synthesize_logic(expanded)
    return LavagnoResult(
        graph, expanded, assignment, rounds, covers, literals,
        watch.elapsed(),
    )


def _largest_class_conflicts(graph, assignment, conflicts):
    """Conflict pairs of the same-code class with the most of them.

    Sequential insertion attacks one class per round, mimicking the
    one-signal-at-a-time style of the original algorithm.
    """
    extra = assignment.cur_bits()

    def class_key(pair):
        state = pair[0]
        return graph.code_of(state) + tuple(extra[state])

    by_class = {}
    for pair in conflicts:
        by_class.setdefault(class_key(pair), []).append(pair)
    return max(by_class.values(), key=len)
