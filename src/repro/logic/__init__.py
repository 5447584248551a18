"""Two-level logic: cube covers and an espresso-like minimizer.

The paper measures implementation area as the literal count of the
unfactored prime irredundant single-output covers produced by
``espresso -Dso -S1``.  This package is the stand-in: positional cubes and
covers (:mod:`repro.logic.cover`), an expand / irredundant / reduce
minimisation loop (:mod:`repro.logic.espresso`), logic extraction from
encoded state graphs (:mod:`repro.logic.extract`), and literal counting
(:mod:`repro.logic.literals`).
"""

from repro.logic.blif import write_blif, write_synthesis_blif
from repro.logic.celement import CElementImplementation, synthesize_celements
from repro.logic.cover import Cover, Cube
from repro.logic.format import cover_to_expression, cube_to_expression, equations
from repro.logic.espresso import espresso
from repro.logic.extract import next_state_tables, synthesize_logic
from repro.logic.literals import literal_count, total_literals

__all__ = [
    "CElementImplementation",
    "Cover",
    "Cube",
    "cover_to_expression",
    "cube_to_expression",
    "equations",
    "espresso",
    "literal_count",
    "next_state_tables",
    "synthesize_celements",
    "synthesize_logic",
    "total_literals",
    "write_blif",
    "write_synthesis_blif",
]
