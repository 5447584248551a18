"""Immutable Petri net markings.

A marking assigns a non-negative token count to every place of a net.  The
paper represents a marking as "a collection of places corresponding to the
local conditions which hold at a particular moment"; we generalise slightly
to multisets so that boundedness violations can be *detected* rather than
silently misrepresented.

Markings are hashable value objects: they are used as dictionary keys by the
reachability construction and as state identities in state graphs.
"""

from __future__ import annotations


class Marking:
    """An immutable multiset of marked places.

    Only places with at least one token are stored.  Token counts are
    accessed with indexing (``marking["p1"]``), which returns 0 for places
    that carry no token.

    Parameters
    ----------
    tokens:
        Either an iterable of place names (each occurrence adds one token)
        or a mapping from place name to token count.  Counts must be
        non-negative; zero counts are dropped.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, tokens=()):
        counts = {}
        if hasattr(tokens, "items"):
            source = tokens.items()
        else:
            source = ((place, 1) for place in tokens)
        for place, count in source:
            if count < 0:
                raise ValueError(
                    f"negative token count {count} for place {place!r}"
                )
            if count:
                counts[place] = counts.get(place, 0) + count
        self._items = tuple(sorted(counts.items()))
        self._hash = hash(self._items)

    @classmethod
    def from_sorted_items(cls, items):
        """A marking from ``(place, count)`` pairs already in normal form.

        ``items`` must be a tuple sorted by place, with distinct places
        and positive counts -- what :meth:`items` returns.  Skips the
        constructor's normalisation; the reachability exploration builds
        every marking it reaches this way.
        """
        marking = cls.__new__(cls)
        marking._items = items
        marking._hash = hash(items)
        return marking

    # -- mapping-style access -------------------------------------------

    def __getitem__(self, place):
        for name, count in self._items:
            if name == place:
                return count
        return 0

    def __contains__(self, place):
        return self[place] > 0

    def __iter__(self):
        """Iterate over the names of marked places."""
        return (name for name, _count in self._items)

    def __len__(self):
        """Number of *distinct* marked places."""
        return len(self._items)

    def items(self):
        """``(place, count)`` pairs in sorted place order."""
        return self._items

    def places(self):
        """Frozenset of marked place names."""
        return frozenset(name for name, _count in self._items)

    def total_tokens(self):
        """Total number of tokens across all places."""
        return sum(count for _name, count in self._items)

    # -- token game ------------------------------------------------------

    def add(self, places):
        """Return a new marking with one extra token in each given place."""
        counts = dict(self._items)
        for place in places:
            counts[place] = counts.get(place, 0) + 1
        return Marking(counts)

    def remove(self, places):
        """Return a new marking with one token removed from each place.

        Raises
        ------
        ValueError
            If some place does not carry a token to remove.
        """
        counts = dict(self._items)
        for place in places:
            current = counts.get(place, 0)
            if current <= 0:
                raise ValueError(f"no token to remove from place {place!r}")
            if current == 1:
                del counts[place]
            else:
                counts[place] = current - 1
        return Marking(counts)

    def covers(self, places):
        """True if every given place carries at least one token.

        ``places`` may contain duplicates, in which case the marking must
        carry at least that many tokens in the repeated place.
        """
        needed = {}
        for place in places:
            needed[place] = needed.get(place, 0) + 1
        return all(self[place] >= count for place, count in needed.items())

    def is_safe(self):
        """True if no place carries more than one token."""
        return all(count <= 1 for _name, count in self._items)

    # -- value-object protocol --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Marking):
            return self._items == other._items
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if isinstance(other, Marking):
            return self._items < other._items
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(
            name if count == 1 else f"{name}*{count}"
            for name, count in self._items
        )
        return f"Marking({{{inner}}})"
