"""An espresso-like two-level minimizer.

Produces a prime irredundant cover of an incompletely specified function
given its ON-set and OFF-set minterms (everything else is don't-care --
the natural shape for state-graph logic, where unreachable codes are
free).  The loop is the classic espresso recipe: EXPAND each cube to a
prime against the OFF-set, extract an IRREDUNDANT subset, REDUCE cubes to
the smallest cube covering their essential minterms, and iterate while
the literal count improves.

Internally cubes are ``(value, care)`` integer bit masks in the layout
:mod:`repro.logic.cover` owns, which keeps the inner containment checks
O(1); the public API speaks :class:`~repro.logic.cover.Cube`/
:class:`~repro.logic.cover.Cover`.

EXPAND asks, for every literal it tries to raise, whether the raised cube
meets the OFF-set.  Each call builds the OFF-set's *column bitsets* once:
for every variable ``i``, two ints over the OFF-set's indices, one with
bit ``j`` set where OFF minterm ``j`` has variable ``i`` at 0 and one
where it is 1.  A cube meets the OFF-set exactly when the AND of its
cared variables' columns, each picked by the cube's value bit, is
non-zero, so a raise trial is a handful of big-int ANDs instead of a scan
of the OFF-set.
"""

from __future__ import annotations

from repro import obs
from repro.logic.cover import Cover, Cube, pack_minterm

_MAX_ROUNDS = 6
_BINARY = frozenset((0, 1))


def espresso(onset, offset, n):
    """Minimise the function with the given ON-set and OFF-set.

    Parameters
    ----------
    onset / offset:
        Iterables of minterms -- tuples of 0/1 of length ``n``.  The two
        sets must be disjoint; minterms in neither are don't-cares.
    n:
        Number of input variables.

    Returns
    -------
    Cover
        A prime irredundant cover of the ON-set that avoids the OFF-set.
    """
    return espresso_ints(
        [_to_int(bits, n) for bits in onset],
        [_to_int(bits, n) for bits in offset],
        n,
    )


def espresso_ints(onset, offset, n):
    """:func:`espresso` on packed minterms (bit ``i`` is variable ``i``).

    The minimiser works on the sorted distinct ints either way, so the
    cover equals :func:`espresso`'s on the same minterms as tuples.
    """
    on_ints = sorted(set(onset))
    off_ints = sorted(set(offset))
    overlap = set(on_ints) & set(off_ints)
    if overlap:
        raise ValueError(
            f"ON-set and OFF-set overlap on {len(overlap)} minterm(s)"
        )
    if not on_ints:
        return Cover(n)

    full_mask = (1 << n) - 1
    cubes = [(m, full_mask) for m in on_ints]
    off_columns = _offset_columns(off_ints, n)

    best = None
    for round_index in range(_MAX_ROUNDS):
        with obs.span("expand"):
            cubes = _expand(cubes, off_columns, _var_order(n, round_index))
            cubes = _remove_covered(cubes)
        with obs.span("irredundant"):
            cubes = _irredundant(cubes, on_ints)
        cost = _cost(cubes)
        if best is None or cost < best[0]:
            best = (cost, list(cubes))
        else:
            break
        with obs.span("reduce"):
            cubes = _reduce(cubes, on_ints, full_mask)
    cubes = best[1]
    return Cover(n, (Cube.from_mask(value, care, n) for value, care in cubes))


def verify_cover(cover, onset, offset):
    """Check a cover implements the incompletely specified function.

    Returns a list of human-readable problems (empty when correct): ON-set
    minterms left uncovered and OFF-set minterms wrongly covered.
    """
    problems = []
    for bits in onset:
        if not cover.contains_minterm(bits):
            problems.append(f"ON minterm {bits} not covered")
    for bits in offset:
        if cover.contains_minterm(bits):
            problems.append(f"OFF minterm {bits} covered")
    return problems


# -- bit-mask internals ------------------------------------------------------


def _to_int(bits, n):
    if len(bits) != n:
        raise ValueError(f"minterm {bits} does not have {n} bits")
    if not _BINARY.issuperset(bits):
        raise ValueError(f"minterm {bits} has non-binary entry")
    return pack_minterm(bits)


def _var_order(n, round_index):
    """Rotate the expansion order between rounds to escape local minima."""
    order = list(range(n))
    if n:
        shift = round_index % n
        order = order[shift:] + order[:shift]
    return order


def _offset_columns(off_ints, n):
    """The OFF-set as column bitsets: ``(everything, columns)``.

    ``columns[i][b]`` has bit ``j`` set exactly when ``off_ints[j]`` has
    value ``b`` at variable ``i``; ``everything`` has every index set.
    """
    everything = (1 << len(off_ints)) - 1
    columns = []
    for i in range(n):
        ones = 0
        for j, m in enumerate(off_ints):
            if m >> i & 1:
                ones |= 1 << j
        columns.append((everything ^ ones, ones))
    return everything, columns


def _expand(cubes, off_columns, order):
    """Raise every cube to a prime against the OFF-set.

    ``off_columns`` is :func:`_offset_columns`'s pair.  Literals are tried
    in ``order``; raising one succeeds when the cube without it misses the
    OFF-set, i.e. when the columns of the literals kept so far (``kept``)
    AND those not tried yet (``untried[k]``) share no OFF index.
    """
    everything, columns = off_columns
    expanded = []
    for value, care in cubes:
        cared = [i for i in order if care >> i & 1]
        picked = [columns[i][value >> i & 1] for i in cared]
        untried = [everything] * (len(cared) + 1)
        for k in range(len(cared) - 1, -1, -1):
            untried[k] = untried[k + 1] & picked[k]
        kept = everything
        for k, i in enumerate(cared):
            if kept & untried[k + 1]:
                kept &= picked[k]
            else:
                care &= ~(1 << i)
        expanded.append((value & care, care))
    return expanded


def _remove_covered(cubes):
    """Drop every cube another cube contains; of duplicates keep the first.

    Every cube's value is masked by its care (``_expand`` and
    ``_supercube`` guarantee it), so a cube ``(v', c')`` contains a
    different cube ``(v, c)`` exactly when ``c' ⊊ c`` and ``v & c' == v'``
    (equal care masks would make the two cubes equal).  Values are
    grouped by care mask, so each cube is tested once per strictly
    smaller mask instead of once per cube.  Survivors keep their order.
    """
    values = {}
    for value, care in cubes:
        values.setdefault(care, set()).add(value)
    smaller = {
        care: [c for c in values if c != care and not c & ~care]
        for care in values
    }
    seen = set()
    result = []
    for cube in cubes:
        if cube in seen:
            continue
        seen.add(cube)
        value, care = cube
        if not any(value & c in values[c] for c in smaller[care]):
            result.append(cube)
    return result


def _coverage(cubes, on_ints):
    """For each ON minterm, the indices of cubes containing it."""
    table = {}
    for m in on_ints:
        covering = [
            index
            for index, (value, care) in enumerate(cubes)
            if not (m ^ value) & care
        ]
        if not covering:
            raise AssertionError(
                f"minimizer invariant broken: ON minterm {m} uncovered"
            )
        table[m] = covering
    return table


def _irredundant(cubes, on_ints):
    """Greedy minimal subset: essentials first, then largest gain."""
    table = _coverage(cubes, on_ints)
    chosen = set()
    for m, covering in table.items():
        if len(covering) == 1:
            chosen.add(covering[0])
    uncovered = {
        m for m, covering in table.items()
        if not any(index in chosen for index in covering)
    }
    while uncovered:
        gains = {}
        for m in uncovered:
            for index in table[m]:
                gains[index] = gains.get(index, 0) + 1
        # Largest gain; ties broken by fewer literals (more dashes).
        best_index = max(
            gains,
            key=lambda index: (gains[index], -_bit_count(cubes[index][1])),
        )
        chosen.add(best_index)
        uncovered = {
            m for m in uncovered
            if best_index not in table[m]
        }
    return [cube for index, cube in enumerate(cubes) if index in chosen]


def _reduce(cubes, on_ints, full_mask):
    """Shrink each cube onto the ON minterms it alone is responsible for.

    Processed sequentially so the cover property is preserved: a cube only
    sheds minterms that some *current* other cube still covers.
    """
    current = list(cubes)
    for index in range(len(current)):
        value, care = current[index]
        mine = []
        for m in on_ints:
            if (m ^ value) & care:
                continue
            if not any(
                not (m ^ ov) & oc
                for j, (ov, oc) in enumerate(current)
                if j != index
            ):
                mine.append(m)
        if mine:
            current[index] = _supercube(mine, full_mask)
    return current


def _supercube(minterms, full_mask):
    first = minterms[0]
    diff = 0
    for m in minterms[1:]:
        diff |= first ^ m
    care = full_mask & ~diff
    return (first & care, care)


def _cost(cubes):
    """(total literals, cube count): the comparison key between rounds."""
    literals = sum(_bit_count(care) for _value, care in cubes)
    return (literals, len(cubes))


def _bit_count(x):
    return bin(x).count("1")
