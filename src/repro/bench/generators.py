"""Phase-cycle STG generator.

Benchmark controllers are built as a *cycle of phases*: plain events run
sequentially, :class:`Par` blocks fork concurrent branches that re-join at
the next plain event, and :class:`Choice` blocks select one of several
alternative sequences through an explicit free-choice place.  The builder
emits astg ``.g`` text directly, numbering repeated transitions with the
``/k`` instance syntax.

Two idioms give the benchmarks their character:

* **Concurrency** (``Par``) multiplies state counts the way the
  master-read/MMU benchmarks' parallel data-path handshakes do.
* **Echo tails** -- an output pulse ``e+ e-`` appended after a
  return-to-zero phase -- recreate the classic CSC conflict: the state
  before ``e+`` carries the same code as the state before the cycle
  restarts, but excites different non-input signals.
"""

from __future__ import annotations


class Par:
    """Concurrent branches between two plain events."""

    def __init__(self, *branches):
        self.branches = [list(b) for b in branches]
        if any(not branch for branch in self.branches):
            raise ValueError("Par branches must be non-empty")


class Choice:
    """Free choice between alternative event sequences."""

    def __init__(self, *alternatives):
        self.alternatives = [list(a) for a in alternatives]
        if len(self.alternatives) < 2:
            raise ValueError("Choice needs at least two alternatives")
        if any(not alt for alt in self.alternatives):
            raise ValueError("Choice alternatives must be non-empty")


def build_g(name, inputs, outputs, cycle, internal=()):
    """Build ``.g`` source for a cyclic phase specification.

    Parameters
    ----------
    name:
        Model name (the benchmark name).
    inputs / outputs / internal:
        Signal classification.
    cycle:
        List of phases: event strings (``"r+"``), :class:`Par` blocks, or
        :class:`Choice` blocks.  The first and last phase must be plain
        events; a ``Par``/``Choice`` must sit between plain events.

    Returns
    -------
    str
        astg ``.g`` source text.
    """
    if not cycle:
        raise ValueError("cycle must not be empty")
    if not isinstance(cycle[0], str) or not isinstance(cycle[-1], str):
        raise ValueError("cycle must start and end with plain events")

    instances = {}

    def fresh(label):
        instances[label] = instances.get(label, 0) + 1
        count = instances[label]
        return label if count == 1 else f"{label}/{count}"

    arcs = []  # (source token, target token) in .g token space
    place_lines = []
    place_count = 0

    def new_place():
        nonlocal place_count
        place_count += 1
        return f"p{place_count}"

    def emit_sequence(events):
        """Instantiate a plain event list; returns (first, last) tokens."""
        tokens = [fresh(e) for e in events]
        for a, b in zip(tokens, tokens[1:]):
            arcs.append((a, b))
        return tokens[0], tokens[-1]

    # First pass: instantiate every phase, remembering entry/exit tokens.
    entries = []  # (entry_tokens, exit_tokens) per phase
    for phase in cycle:
        if isinstance(phase, str):
            token = fresh(phase)
            entries.append(([token], [token]))
        elif isinstance(phase, Par):
            firsts, lasts = [], []
            for branch in phase.branches:
                first, last = emit_sequence(branch)
                firsts.append(first)
                lasts.append(last)
            entries.append((firsts, lasts))
        elif isinstance(phase, Choice):
            split = new_place()
            join = new_place()
            alt_firsts = []
            for alternative in phase.alternatives:
                first, last = emit_sequence(alternative)
                alt_firsts.append(first)
                arcs.append((last, join))
            place_lines.append((split, alt_firsts))
            entries.append(([split], [join]))
        else:
            raise TypeError(f"bad phase {phase!r}")

    # Second pass: connect consecutive phases, then close the cycle.
    for (_, exits), (nexts, _) in zip(entries, entries[1:]):
        for exit_token in exits:
            for next_token in nexts:
                arcs.append((exit_token, next_token))
    last_token = entries[-1][1][0]
    first_token = entries[0][0][0]
    arcs.append((last_token, first_token))

    # Assemble .g text: group arcs by source.
    by_source = {}
    for source, target in arcs:
        by_source.setdefault(source, []).append(target)
    lines = [f".model {name}"]
    if inputs:
        lines.append(".inputs " + " ".join(inputs))
    if outputs:
        lines.append(".outputs " + " ".join(outputs))
    if internal:
        lines.append(".internal " + " ".join(internal))
    lines.append(".graph")
    for source in sorted(by_source):
        lines.append(" ".join([source] + sorted(by_source[source])))
    for place, targets in place_lines:
        if place not in by_source:
            lines.append(" ".join([place] + sorted(targets)))
    lines.append(f".marking {{ <{last_token},{first_token}> }}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def scaling_family(width):
    """``.g`` source of a master-read-style controller of ``width`` lanes.

    Each data-path lane is a half handshake ``d+ q+ ... d- q-`` that
    keeps its codes monotone; one extra branch carries an echo-pulse
    ``w+ w- w+`` whose code repeats, the family's single CSC conflict.
    States grow about 3x per lane (22, 58, 166, 490 at widths 1-4)
    while the conflict stays fixed, which isolates how each layer
    scales with specification size.
    """
    lanes = range(1, width + 1)
    rising = [[f"d{i}+", f"q{i}+"] for i in lanes] + [["w+", "w-", "w+"]]
    falling = [[f"d{i}-", f"q{i}-"] for i in lanes] + [["w-"]]
    return build_g(
        f"family-{width}",
        inputs=["r"] + [f"d{i}" for i in lanes],
        outputs=["a", "e", "w"] + [f"q{i}" for i in lanes],
        cycle=["r+", Par(*rising), "a+", "r-", Par(*falling), "a-",
               "e+", "e-"],
    )


def _is_place(token):
    return token.startswith("p") and token[1:].isdigit()
