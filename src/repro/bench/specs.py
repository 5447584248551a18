"""Definitions of the 23 Table-1 benchmark STGs.

Each entry either calls the phase-cycle generator
(:mod:`repro.bench.generators`) or supplies hand-written ``.g`` text (the
non-free-choice benchmark cannot be expressed by the free-choice
generator).  The shapes follow the behaviours the benchmark names refer
to in the asynchronous-synthesis literature -- master-read/MMU bus
controllers with parallel data-path handshakes, send/receive buffer
controllers, A/D converter control, FIFO cells -- with parameters tuned
so the state/signal counts land close to the paper's "Specifications"
columns (see DESIGN.md §4 for the substitution rationale).

The recurring *echo tail* (a ``done`` pulse after the return-to-zero
phase) is what gives these controllers their CSC conflicts: the state
before the pulse shares its code with the idle state.
"""

from __future__ import annotations

from repro.bench.generators import Choice, Par, build_g


def _handshake(index, rounds=1):
    """An input-led four-phase handshake branch: (d+ q+ d- q-) * rounds.

    The branch's local code returns to (0, 0) after every round, which
    creates USC pairs (equal codes) but *not* CSC conflicts: the states
    sharing the code excite only the input ``d`` (or nothing, at the
    join), and every output is stable low in all of them.  This mirrors
    the real master-read/MMU benchmarks, whose state graphs are dense in
    equal codes yet carry only a handful of genuine conflicts -- the
    source of the huge *direct* SAT formulas.
    """
    return [f"d{index}+", f"q{index}+", f"d{index}-", f"q{index}-"] * rounds


def _pulsed_branch(index, pulse, half_rounds=2):
    """A double-round handshake whose rounds a mid-branch pulse tells apart.

    ``(d+ q+ d- q-) pulse+ (d+ q+ ...)``: the second round's codes carry
    ``pulse = 1``, so -- unlike a bare repeated handshake -- the two
    rounds never force the join output to *count* rounds.  The only
    repeated code is the pulse's own trigger position (branch-local code
    back at the start), whose conflict lives in the pulse output's tiny
    module: exactly the locality the modular method exploits.
    """
    events = _handshake(index) + [f"{pulse}+"]
    events += [f"d{index}+", f"q{index}+"]
    if half_rounds >= 3:
        events += [f"d{index}-", f"q{index}-"]
    return events


def _mr0():
    return build_g(
        "mr0",
        inputs=["r", "d1", "d2", "d3"],
        outputs=["a", "q1", "q2", "q3", "x", "y", "e"],
        cycle=(
            ["r+",
             Par(
                 _pulsed_branch(1, "x"),
                 _pulsed_branch(2, "y"),
                 ["d3+", "q3+"],
             ),
             "a+", "r-",
             Par(
                 ["d1-", "q1-", "x-"],
                 ["d2-", "q2-", "y-"],
                 ["d3-", "q3-"],
             ),
             "a-", "e+", "e-"]
        ),
    )


def _mr1():
    return build_g(
        "mr1",
        inputs=["r", "d1", "d2"],
        outputs=["a", "q1", "q2", "x", "e"],
        cycle=(
            ["r+",
             Par(
                 _pulsed_branch(1, "x"),
                 ["d2+", "q2+", "d2-", "q2-", "d2+", "q2+"],
                 ["e+"],
             ),
             "a+", "r-",
             Par(["d1-", "q1-", "x-"], ["d2-", "q2-"], ["e-"]),
             "a-"]
        ),
    )


def _mmu0():
    return build_g(
        "mmu0",
        inputs=["r", "d1", "d2"],
        outputs=["a", "q1", "q2", "x", "e"],
        cycle=(
            ["r+",
             Par(
                 _pulsed_branch(1, "x"),
                 ["d2+", "q2+", "d2-", "q2-"],
                 ["e+", "e-", "e+"],
             ),
             "a+", "r-",
             Par(["d1-", "q1-", "x-"], ["d2+", "q2+", "d2-", "q2-"],
                 ["e-"]),
             "a-"]
        ),
    )


def _mmu1():
    return build_g(
        "mmu1",
        inputs=["r", "d1", "d2"],
        outputs=["a", "q1", "q2", "x", "e"],
        cycle=(
            ["r+",
             Par(_pulsed_branch(1, "x"), ["d2+", "q2+", "d2-", "q2-"]),
             "a+", "r-",
             Par(["d1-", "q1-", "x-"], ["e+"]),
             "a-", "e-"]
        ),
    )


def _sbuf_ram_write():
    return build_g(
        "sbuf-ram-write",
        inputs=["r", "d1", "d2", "d3"],
        outputs=["a", "q1", "q2", "q3", "w", "e"],
        cycle=(
            ["r+", Par(["q1+", "d1+"], ["q2+", "d2+"], ["q3+", "d3+"]),
             "w+", "e+", "e-", "a+", "r-",
             Par(["q1-", "d1-"], ["q2-", "d2-"], ["q3-", "d3-"]),
             "w-", "a-", "e+", "e-"]
        ),
    )


def _vbe4a():
    return build_g(
        "vbe4a",
        inputs=["a", "b"],
        outputs=["c", "d", "e", "f"],
        cycle=(
            ["a+",
             Par(["c+", "b+", "c-", "b-"], ["d+", "d-", "d+", "d-"]),
             "f+", "a-",
             Par(["c+", "c-", "c+", "c-"], ["d+", "d-", "d+", "d-"]),
             "f-", "e+", "e-"]
        ),
    )


def _nak_pa():
    return build_g(
        "nak-pa",
        inputs=["r", "d1", "d2", "d3"],
        outputs=["a", "q1", "q2", "q3", "e"],
        cycle=(
            ["r+", Par(["q1+", "d1+"], ["q2+", "d2+"], ["q3+", "d3+"]),
             "a+", "r-",
             Par(["q1-", "d1-"], ["q2-", "d2-"], ["q3-", "d3-"]),
             "a-", "e+", "e-"]
        ),
    )


def _pe_rcv_ifc_fc():
    # Two synthesizability constraints shape this spec: the free choice
    # must be resolved by the environment (both alternatives open with
    # *input* transitions -- a circuit cannot "choose"), and the falling
    # x pulse must be acknowledged by an output (y), otherwise its
    # completion leaves no trace in the state code and nothing
    # implementable can wait for it.
    return build_g(
        "pe-rcv-ifc-fc",
        inputs=["r", "d1", "x"],
        outputs=["a", "q1", "y", "e", "w"],
        cycle=(
            ["r+",
             Choice(["d1+", "q1+"], ["x+", "x-", "d1+", "q1+"]),
             "w+", "a+", "r-",
             Par(["d1-", "q1-"], ["x+", "y+", "x-", "y-"]),
             "w-", "a-", "e+", "e-"]
        ),
    )


def _ram_read_sbuf():
    return build_g(
        "ram-read-sbuf",
        inputs=["r", "d1", "d2"],
        outputs=["a", "q1", "q2", "w", "v", "u", "e"],
        cycle=(
            ["r+", Par(["q1+", "d1+"], ["q2+", "d2+"]), "w+", "a+", "r-",
             Par(["q1-", "d1-"], ["q2-", "d2-"], ["u+", "u-"]),
             "v+", "v-", "w-", "a-", "e+", "e-"]
        ),
    )


# alex-nonfc needs a non-free-choice net: the grant transitions g+/1 and
# g+/2 share the request place but each also needs its own side condition,
# so the choice is controlled, not free.
_ALEX_NONFC = """
.model alex-nonfc
.inputs a b
.outputs g h w e
.graph
preq g+/1 g+/2
pa g+/1
pb g+/2
a+ pa
b+ pb
g+/1 h+/1
g+/2 h+/2
h+/1 a-
h+/2 b-
a- g-/1
b- g-/2
g-/1 h-/1
g-/2 h-/2
h-/1 w+/1
h-/2 w+/2
w+/1 w-/1
w+/2 w-/2
w-/1 pj
w-/2 pj
pj e+
e+ e-
e- pin preq
pin a+ b+
.marking { pin preq }
.end
"""


def _sbuf_send_pkt2():
    return build_g(
        "sbuf-send-pkt2",
        inputs=["r", "d"],
        outputs=["a", "q", "x", "e"],
        cycle=(
            ["r+", Par(["q+", "d+"], ["x+"]), "a+", "r-",
             Par(["q-", "d-"], ["x-"]), "a-", "e+", "e-"]
        ),
    )


def _sbuf_send_ctl():
    return build_g(
        "sbuf-send-ctl",
        inputs=["r", "d"],
        outputs=["a", "q", "e", "x"],
        cycle=(
            ["r+", "q+", "d+", "a+", "e+", "e-", "r-",
             Par(["q-", "d-"], ["x+", "x-"]), "a-", "e+", "e-"]
        ),
    )


def _atod():
    return build_g(
        "atod",
        inputs=["r", "d"],
        outputs=["a", "q", "x", "e"],
        cycle=(
            ["r+", "q+", "d+", Par(["x+", "x-"], ["a+"]), "r-",
             Par(["q-", "d-"], ["a-"]), "e+", "e-"]
        ),
    )


def _pa():
    return build_g(
        "pa",
        inputs=["r"],
        outputs=["a", "b", "e"],
        cycle=(
            ["r+", Par(["a+", "a-"], ["b+", "b-"]), "r-",
             Par(["a+", "a-"], ["b+"]), "b-", "e+", "e-"]
        ),
    )


def _wrdata():
    return build_g(
        "wrdata",
        inputs=["r"],
        outputs=["a", "b", "e"],
        cycle=(
            ["r+", Par(["a+"], ["b+"]), "e+", "e-", "r-",
             Par(["a-"], ["b-"]), "e+", "e-"]
        ),
    )


def _fifo():
    return build_g(
        "fifo",
        inputs=["r"],
        outputs=["a", "b", "e"],
        cycle=(
            ["r+", Par(["a+"], ["b+"]), "r-", Par(["a-"], ["b-"]),
             "r+", "e+", "r-", "e-"]
        ),
    )


def _sbuf_read_ctl():
    return build_g(
        "sbuf-read-ctl",
        inputs=["r", "d"],
        outputs=["a", "q", "e", "f"],
        cycle=(
            ["r+", "q+", "d+", "a+", "r-", Par(["q-", "d-"], ["f+", "f-"]),
             "a-", "e+", "e-"]
        ),
    )


def _alloc_outbound():
    return build_g(
        "alloc-outbound",
        inputs=["r", "d"],
        outputs=["a", "q", "x", "e", "f"],
        cycle=(
            ["r+", Par(["q+", "d+"], ["x+"]), "a+", "r-", "q-", "d-",
             "x-", "a-", "e+", "f+", "f-", "e-"]
        ),
    )


def _nouse():
    return build_g(
        "nouse",
        inputs=["a"],
        outputs=["b", "c"],
        cycle=(
            ["a+", "b+", "a-", "b-", "a+", "c+", "a-", "c-"]
        ),
    )


def _vbe_ex2():
    return build_g(
        "vbe-ex2",
        inputs=["a"],
        outputs=["b"],
        cycle=(
            ["a+", "b+", "b-", "a-", "b+", "b-", "b+", "b-"]
        ),
    )


def _nousc_ser():
    return build_g(
        "nousc-ser",
        inputs=["a"],
        outputs=["b", "c"],
        cycle=(
            ["a+", "b+", "b-", "a-", "c+", "c-"]
        ),
    )


def _sendr_done():
    return build_g(
        "sendr-done",
        inputs=["req"],
        outputs=["sendr", "done"],
        cycle=(
            ["req+", "sendr+", "sendr-", "done+", "req-", "done-"]
        ),
    )


def _vbe_ex1():
    return build_g(
        "vbe-ex1",
        inputs=["a"],
        outputs=["b"],
        cycle=(
            ["a+", "b+", "b-", "a-", "b+", "b-"]
        ),
    )


#: name -> callable producing .g text
SPEC_BUILDERS = {
    "mr0": _mr0,
    "mr1": _mr1,
    "mmu0": _mmu0,
    "mmu1": _mmu1,
    "sbuf-ram-write": _sbuf_ram_write,
    "vbe4a": _vbe4a,
    "nak-pa": _nak_pa,
    "pe-rcv-ifc-fc": _pe_rcv_ifc_fc,
    "ram-read-sbuf": _ram_read_sbuf,
    "alex-nonfc": lambda: _ALEX_NONFC,
    "sbuf-send-pkt2": _sbuf_send_pkt2,
    "sbuf-send-ctl": _sbuf_send_ctl,
    "atod": _atod,
    "pa": _pa,
    "alloc-outbound": _alloc_outbound,
    "wrdata": _wrdata,
    "fifo": _fifo,
    "sbuf-read-ctl": _sbuf_read_ctl,
    "nouse": _nouse,
    "vbe-ex2": _vbe_ex2,
    "nousc-ser": _nousc_ser,
    "sendr-done": _sendr_done,
    "vbe-ex1": _vbe_ex1,
}


def generate(name):
    """The ``.g`` source text of one benchmark."""
    return SPEC_BUILDERS[name]()
