"""One options object for every synthesis entry point.

The synthesis methods accumulated a sprawl of keyword arguments
(``limits``, ``minimize``, ``max_signals``, ``output_order``,
``signal_prefix``, ``engine``, ``polish``, ``budget``, ``fallback``,
``degrade``) that had to be threaded, parameter by parameter, through
:func:`~repro.runtime.run.run_synthesis`, the CLI, and the benchmark
runner.  :class:`SynthesisOptions` replaces that sprawl: one frozen
dataclass accepted by :func:`~repro.csc.synthesis.modular_synthesis`,
:func:`~repro.csc.direct.direct_synthesis`,
:func:`~repro.baselines.lavagno.lavagno_synthesis`,
:func:`~repro.runtime.run.run_synthesis`, and the top-level
:func:`repro.synthesize` facade.

The old keywords are gone: after one deprecation cycle (the PR-3 shims
warned with :class:`DeprecationWarning`), passing them is a plain
:class:`TypeError`.  :func:`coerce_options` now only validates the
``options=`` value and fills per-caller defaults, so
:class:`SynthesisOptions` is the single options surface.

Fields whose natural default differs per method (``signal_prefix`` is
``"csc"`` for the SAT methods but ``"lm"`` for the Lavagno baseline;
``limits`` and ``max_signals`` default to per-method budgets) default to
``None``, meaning "the method's default".  This module is a dependency
leaf like the rest of :mod:`repro.runtime`'s core: it imports nothing
from the synthesis layers at load time, so they can all import it then;
the engine and SAT-mode tuples it validates against are read from
:mod:`repro.sat`, and the verify levels from
:mod:`repro.verify.checker`, when an options value is built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class SynthesisOptions:
    """Every knob of a synthesis run, in one immutable value.

    Parameters
    ----------
    limits:
        Per-formula SAT budget (:class:`repro.sat.solver.Limits`);
        ``None`` means the method's default budget.
    minimize:
        Also derive minimised two-level covers and literal counts.
    max_signals:
        Cap on state signals tried per formula; ``None`` means the
        method's default.
    output_order:
        Explicit processing order for the non-input signals (modular
        method only); ``None`` derives the smallest-module-first order.
    signal_prefix:
        Prefix for inserted state signal names; ``None`` means the
        method's default (``"csc"``, or ``"lm"`` for the baseline).
    engine:
        SAT engine: ``"hybrid"``, ``"dpll"``, ``"cdcl"`` or ``"bdd"``.
    polish:
        Run the assignment polish pass after synthesis.
    budget:
        Run-wide :class:`~repro.runtime.budget.Budget`; ``None`` is
        unlimited.
    fallback:
        Enable the engine-fallback ladder on every solve.
    degrade:
        Modular method only: degrade failed per-output passes to direct
        sub-solves instead of aborting the run.
    cache_dir:
        Directory of the persistent
        :class:`~repro.perf.result_cache.ResultCache`.  ``None`` (the
        default) disables cross-run caching.
    cache_max_bytes:
        Size bound on the persistent result cache.  After every store
        the cache evicts least-recently-used records (by access time)
        until the store fits.  ``None`` (the default) never evicts.
        Like ``cache_dir``, a scheduling knob: it never changes what a
        run produces, only what later runs find warm.
    sat_mode:
        ``"incremental"`` (default) solves each grow-``m`` loop on one
        persistent assumption-based solver, carrying learned clauses
        across attempts; ``"oneshot"`` rebuilds the formula and starts
        a cold engine per attempt (the paper-faithful baseline).  Only
        the search engines (``"hybrid"``/``"cdcl"``) have an
        incremental form; ``"dpll"`` and ``"bdd"`` always solve
        one-shot.  See ``docs/performance.md``.
    verify_level:
        Post-synthesis verification depth run by
        :func:`~repro.runtime.run.run_synthesis`: ``"csc"`` (default)
        re-checks complete state coding statically, ``"conformance"``
        model-checks the gate-level closed loop for I/O conformance,
        ``"hazards"`` additionally checks excitation persistency
        (semi-modularity / output-hazard freedom).  See
        ``docs/verification.md``.  A scheduling-independent knob that
        never changes what synthesis produces, only how hard the
        result is checked -- the result cache deliberately ignores it.
    """

    limits: object = None
    minimize: bool = True
    max_signals: object = None
    output_order: object = None
    signal_prefix: object = None
    engine: str = "hybrid"
    polish: bool = True
    budget: object = None
    fallback: bool = False
    degrade: bool = False
    cache_dir: object = None
    cache_max_bytes: object = None
    sat_mode: str = "incremental"
    verify_level: str = "csc"

    def __post_init__(self):
        # Imported late: see the module docstring.
        from repro.sat import ENGINES, SAT_MODES
        from repro.verify.checker import VERIFY_LEVELS

        if self.output_order is not None:
            object.__setattr__(
                self, "output_order", tuple(self.output_order)
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, not {self.engine!r}"
            )
        if self.sat_mode not in SAT_MODES:
            raise ValueError(
                f"sat_mode must be one of {SAT_MODES}, "
                f"not {self.sat_mode!r}"
            )
        if self.verify_level not in VERIFY_LEVELS:
            raise ValueError(
                f"verify_level must be one of {VERIFY_LEVELS}, "
                f"not {self.verify_level!r}"
            )
        if self.cache_max_bytes is not None and self.cache_max_bytes < 0:
            raise ValueError(
                f"cache_max_bytes must be >= 0 or None, "
                f"not {self.cache_max_bytes!r}"
            )

    def evolve(self, **changes):
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def resolved_prefix(self, default="csc"):
        """``signal_prefix`` with the method's default filled in."""
        return self.signal_prefix if self.signal_prefix is not None \
            else default

    def resolved_max_signals(self, default):
        """``max_signals`` with the method's default filled in."""
        return self.max_signals if self.max_signals is not None else default

    def resolved_limits(self, default=None):
        """``limits`` with the method's default filled in."""
        return self.limits if self.limits is not None else default


#: Names of every :class:`SynthesisOptions` field.
OPTION_FIELDS = frozenset(f.name for f in fields(SynthesisOptions))


def coerce_options(options, caller, defaults=None):
    """Validate an ``options=`` value; fill per-caller defaults.

    * ``options`` given: type-checked and returned as-is.
    * ``options is None``: a fresh :class:`SynthesisOptions` built from
      ``defaults`` (a caller whose historical no-argument behaviour
      differs from the dataclass defaults -- ``run_synthesis`` keeps
      ``fallback=True`` -- preserves it here).
    """
    if options is None:
        return SynthesisOptions(**(defaults or {}))
    if not isinstance(options, SynthesisOptions):
        raise TypeError(
            f"{caller}() options must be a SynthesisOptions, "
            f"not {type(options).__name__}"
        )
    return options
