"""Cubes and covers in positional notation.

A cube over ``n`` variables is a tuple of ``n`` entries drawn from
``{0, 1, DASH}``: 0 and 1 are literals, :data:`DASH` means the variable is
absent.  A cover is an ordered list of cubes implementing the union of
their minterm sets.

The bit-parallel kernels (the minimizer, the gate-level circuit) work on
ints instead, and this module owns that layout: position ``i`` is bit
``i``.  A minterm packs to one int (:func:`pack_minterm`, inverted by
:func:`unpack_minterm`); a cube to a
``(value, care)`` pair (:meth:`Cube.mask`, :meth:`Cube.from_mask`), so a
packed minterm ``m`` lies inside it exactly when ``not (m ^ value) & care``.
"""

from __future__ import annotations

#: "Don't care" position marker within a cube.
DASH = 2

_CHARS = {0: "0", 1: "1", DASH: "-"}
_VALUES = {"0": 0, "1": 1, "-": DASH, "2": DASH}


def pack_minterm(bits):
    """The int whose bit ``i`` is ``bits[i]`` (a sequence of 0/1)."""
    value = 0
    for bit in reversed(bits):
        value = value << 1 | bit
    return value


def unpack_minterm(value, n):
    """The ``n``-tuple of 0/1 whose packed form is ``value``."""
    return tuple(value >> i & 1 for i in range(n))


class Cube:
    """An immutable product term in positional notation.

    >>> Cube.parse("1-0").literals
    2
    """

    __slots__ = ("positions",)

    def __init__(self, positions):
        positions = tuple(positions)
        for p in positions:
            if p not in (0, 1, DASH):
                raise ValueError(f"bad cube entry {p!r}")
        object.__setattr__(self, "positions", positions)

    def __setattr__(self, name, value):
        raise AttributeError("Cube is immutable")

    def __reduce__(self):
        # Immutability blocks pickle's default slot restore; rebuild
        # through the constructor instead.
        return (Cube, (self.positions,))

    @classmethod
    def parse(cls, text):
        """Parse ``"1-0"`` style positional notation."""
        try:
            return cls(_VALUES[c] for c in text)
        except KeyError as exc:
            raise ValueError(f"bad cube character in {text!r}") from exc

    @classmethod
    def full(cls, n):
        """The universal cube (all dashes) over ``n`` variables."""
        return cls([DASH] * n)

    @classmethod
    def from_minterm(cls, bits):
        """A cube with every variable bound (a minterm)."""
        return cls(bits)

    @classmethod
    def from_mask(cls, value, care, n):
        """The cube over ``n`` variables of a ``(value, care)`` int pair."""
        return cls(
            value >> i & 1 if care >> i & 1 else DASH for i in range(n)
        )

    def mask(self):
        """``(value, care)`` ints: bit ``i`` of ``care`` is set where
        position ``i`` is bound, and ``value`` holds the bound literals
        (it is always masked by ``care``)."""
        value = care = 0
        for p in reversed(self.positions):
            value = value << 1 | (p == 1)
            care = care << 1 | (p != DASH)
        return value, care

    @property
    def n(self):
        return len(self.positions)

    @property
    def literals(self):
        """Number of bound positions (the cube's literal count)."""
        return sum(1 for p in self.positions if p != DASH)

    def __getitem__(self, index):
        return self.positions[index]

    def __iter__(self):
        return iter(self.positions)

    def __len__(self):
        return len(self.positions)

    def __eq__(self, other):
        if isinstance(other, Cube):
            return self.positions == other.positions
        return NotImplemented

    def __hash__(self):
        return hash(self.positions)

    def __str__(self):
        return "".join(_CHARS[p] for p in self.positions)

    def __repr__(self):
        return f"Cube({str(self)!r})"

    # -- cube algebra ----------------------------------------------------

    def contains_minterm(self, bits):
        """True if the minterm lies inside this cube."""
        return all(
            p == DASH or p == bit for p, bit in zip(self.positions, bits)
        )

    def covers(self, other):
        """True if every minterm of ``other`` is inside ``self``."""
        return all(
            sp == DASH or sp == op
            for sp, op in zip(self.positions, other.positions)
        )

    def intersects(self, other):
        """True if the two cubes share at least one minterm."""
        return all(
            sp == DASH or op == DASH or sp == op
            for sp, op in zip(self.positions, other.positions)
        )

    def intersection(self, other):
        """The common sub-cube, or ``None`` if disjoint."""
        result = []
        for sp, op in zip(self.positions, other.positions):
            if sp == DASH:
                result.append(op)
            elif op == DASH or op == sp:
                result.append(sp)
            else:
                return None
        return Cube(result)

    def raised(self, index):
        """A copy with variable ``index`` freed to don't-care."""
        positions = list(self.positions)
        positions[index] = DASH
        return Cube(positions)

    def bound(self, index, value):
        """A copy with variable ``index`` set to ``value``."""
        positions = list(self.positions)
        positions[index] = value
        return Cube(positions)

    def size(self):
        """Number of minterms the cube contains."""
        return 2 ** sum(1 for p in self.positions if p == DASH)

    def minterms(self):
        """Iterate all contained minterms (use only for small cubes)."""
        free = [i for i, p in enumerate(self.positions) if p == DASH]
        base = [0 if p == DASH else p for p in self.positions]
        for mask in range(2 ** len(free)):
            bits = list(base)
            for bit_index, var_index in enumerate(free):
                bits[var_index] = (mask >> bit_index) & 1
            yield tuple(bits)

    def distance(self, other):
        """Number of positions where the cubes conflict (0/1 clash)."""
        return sum(
            1
            for sp, op in zip(self.positions, other.positions)
            if sp != DASH and op != DASH and sp != op
        )


class Cover:
    """An ordered list of cubes over a common variable count."""

    def __init__(self, n, cubes=()):
        self.n = n
        self.cubes = []
        for cube in cubes:
            self.append(cube)

    @classmethod
    def from_strings(cls, n, texts):
        return cls(n, (Cube.parse(t) for t in texts))

    def append(self, cube):
        if not isinstance(cube, Cube):
            cube = Cube(cube)
        if cube.n != self.n:
            raise ValueError(
                f"cube has {cube.n} variables, cover expects {self.n}"
            )
        self.cubes.append(cube)

    def __len__(self):
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def __getitem__(self, index):
        return self.cubes[index]

    def __eq__(self, other):
        if isinstance(other, Cover):
            return self.n == other.n and set(self.cubes) == set(other.cubes)
        return NotImplemented

    def contains_minterm(self, bits):
        return any(cube.contains_minterm(bits) for cube in self.cubes)

    def evaluate(self, bits):
        """0/1 value of the cover's function on a full input vector."""
        return 1 if self.contains_minterm(bits) else 0

    def intersects_cube(self, cube):
        return any(cube.intersects(c) for c in self.cubes)

    @property
    def literals(self):
        """Total literal count -- the paper's area metric."""
        return sum(cube.literals for cube in self.cubes)

    def without(self, index):
        """A copy with the cube at ``index`` removed."""
        return Cover(
            self.n,
            (c for i, c in enumerate(self.cubes) if i != index),
        )

    def __str__(self):
        return "\n".join(str(c) for c in self.cubes)

    def __repr__(self):
        return f"Cover(n={self.n}, cubes={len(self.cubes)})"
