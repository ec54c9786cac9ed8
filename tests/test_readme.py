"""The README's library tour runs, and gives what its comments state."""

import ast
from pathlib import Path

from capfree.solvers import is_proper_coloring

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    """The python code block of the README's "Library tour" section."""
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_gives_what_its_comments_state():
    tour = library_tour()
    namespace: dict = {}
    values = {}
    for statement in ast.parse(tour).body:
        code = ast.get_source_segment(tour, statement)
        if isinstance(statement, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    g1 = namespace["g1"]
    assert values['recognize(g1, "cap-even-hole-free")'].accepted
    chi, colors = values["chromatic_number(g1)"]
    assert chi == 5 and is_proper_coloring(g1, colors, 5)
    stable = values["mwss(g1)"]
    assert (stable.vertices, stable.weight) == ((4, 8), 2)
    assert values["clique_number(g1)"] == (4, (0, 1, 2, 3))
    assert namespace["td"].width == 2
