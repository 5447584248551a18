"""CNF formulas with named variables.

Variables are positive integers; literals are signed integers in the DIMACS
convention (``-v`` is the negation of ``v``).  :class:`Cnf` also keeps an
optional name for every variable so encodings stay debuggable and models
can be read back symbolically.
"""

from __future__ import annotations


class Cnf:
    """A growable CNF formula.

    >>> cnf = Cnf()
    >>> a, b = cnf.new_var("a"), cnf.new_var("b")
    >>> cnf.add_clause([a, b])
    >>> cnf.add_clause([-a, b])
    >>> cnf.num_vars, cnf.num_clauses
    (2, 2)
    """

    def __init__(self):
        self._names = [None]  # 1-based variable indexing
        self._by_name = {}
        self.clauses = []
        self._weights = {}

    # -- variables ---------------------------------------------------------

    @property
    def num_vars(self):
        return len(self._names) - 1

    @property
    def num_clauses(self):
        return len(self.clauses)

    def new_var(self, name=None):
        """Allocate a fresh variable; optional unique name."""
        var = len(self._names)
        if name is not None:
            if name in self._by_name:
                raise ValueError(f"variable name {name!r} already used")
            self._by_name[name] = var
        self._names.append(name)
        return var

    def var(self, name):
        """Look up a variable by name, allocating it on first use."""
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        return self.new_var(name)

    def name_of(self, var):
        """The name of a variable, or ``None`` if anonymous."""
        if not 1 <= var <= self.num_vars:
            raise ValueError(f"unknown variable {var}")
        return self._names[var]

    # -- optional optimisation weights --------------------------------------

    def set_weight(self, var, weight):
        """Price of assigning ``var = True`` (used by optimising engines).

        Plain decision engines ignore weights; the BDD engine minimises
        the summed weight of true variables over all models.
        """
        if not 1 <= var <= self.num_vars:
            raise ValueError(f"unknown variable {var}")
        self._weights[var] = weight

    @property
    def weights(self):
        """Copy of the ``var -> weight`` mapping (zero weights omitted)."""
        return dict(self._weights)

    # -- clauses ---------------------------------------------------------------

    def add_clause(self, literals):
        """Add one clause (an iterable of non-zero literals).

        Tautological clauses (containing ``l`` and ``-l``) are dropped;
        duplicate literals within a clause are deduplicated.  An empty
        clause is accepted and makes the formula trivially unsatisfiable.
        """
        seen = set()
        clause = []
        for literal in literals:
            literal = int(literal)
            if literal == 0:
                raise ValueError("literal 0 is not allowed")
            var = abs(literal)
            if var > self.num_vars:
                raise ValueError(f"literal {literal} uses unallocated variable")
            if -literal in seen:
                return  # tautology
            if literal not in seen:
                seen.add(literal)
                clause.append(literal)
        self.clauses.append(tuple(clause))

    def extend(self, clauses):
        for clause in clauses:
            self.add_clause(clause)

    # -- evaluation (for tests and model checking) -----------------------------

    def evaluate(self, assignment):
        """Evaluate under ``assignment`` (dict var -> bool). True iff satisfied.

        Unassigned variables default to False.
        """
        for clause in self.clauses:
            if not any(
                assignment.get(abs(lit), False) == (lit > 0)
                for lit in clause
            ):
                return False
        return True

    def to_dimacs(self):
        """Serialise in DIMACS cnf format (for debugging/interop)."""
        lines = [f"p cnf {self.num_vars} {self.num_clauses}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"Cnf(vars={self.num_vars}, clauses={self.num_clauses})"
