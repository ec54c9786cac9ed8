"""Pinned answers: the exact stable set, chromatic coloring and
q-colorings the solvers return on fixed graphs, as one sha256 per graph
of their JSON.  Values alone are checked elsewhere; these pins also hold
every tie-break (which stable set of the largest weight, which coloring),
so a refactor that should change nothing can show that it changed
nothing.  A change that alters a tie-break on purpose updates the pins and
lists the changed answers in CHANGES.md.

To print the current digests: python tests/test_pinned_answers.py
"""

import hashlib
import json

import pytest

from capfree import (GeneratorParams, add_universal_clique, blow_up,
                     chromatic_number, generate_instance, hole, mwss, path,
                     q_color_graph)


def _generated(seed, glue, odd_signable):
    params = GeneratorParams(
        seed=seed, ear_count=3 if odd_signable else 2, max_blowup=2,
        max_universal=0 if odd_signable else 1, glue_count=glue,
        target_class=("cap-4hole-odd-signable" if odd_signable
                      else "cap-even-hole-free"))
    return generate_instance(params)[0]


GRAPHS = {
    **{f"c{2 * k + 1}x2u{u}": lambda k=k, u=u: add_universal_clique(
        blow_up(hole(2 * k + 1), [2] * (2 * k + 1)), u)
       for k in (2, 3, 4) for u in (0, 1)},
    "path300": lambda: path(300),
    "hole151": lambda: hole(151),
    **{f"glue{glue}": lambda glue=glue: _generated(16 + glue, glue, glue % 2)
       for glue in (1, 3, 6, 10)},
}


def answers(g) -> dict:
    """Every pinned answer on g, in JSON-ready form."""
    weights = [1 + 7 * v % 9 for v in g.vertices()]
    unit, weighted = mwss(g), mwss(g, weights)
    chi, coloring = chromatic_number(g)
    return {"mwss": [list(unit.vertices), unit.weight],
            "mwss_weighted": [list(weighted.vertices), weighted.weight],
            "chromatic": [chi, coloring],
            "color_chi": q_color_graph(g, chi),
            "color_chi_minus_1": q_color_graph(g, chi - 1)}


def digest(g) -> str:
    text = json.dumps(answers(g), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


PINS = {
    "c5x2u0": "b6b4e053ed018cf14260beb894448742ce96acdb20fc90ed50c709aef927c9ee",
    "c5x2u1": "f6e0e7e74df22815d470fccc6383b43a866cb9325be1852692e5239c57153353",
    "c7x2u0": "3373ec13cb0dadcd1926bc7179f44d31aef1d4e4c6d19551c06fada4a636df85",
    "c7x2u1": "3f510c66dfad05cdc531d149d79223c88e06f08e389ff8539f11f4c157b83ad3",
    "c9x2u0": "cec7ae597d41530578e51cbbb20e14e091711e1591f3c9e8b4952efcd670f665",
    "c9x2u1": "26a19991236fde8c3f4ff54abfa82d72bb914e5fe5489af783d8a2ace0243dcd",
    "glue1": "b2e7019fb15677472e7db38bd7d00e9b34c64ba5028ebe12f9dedd8a2f8b6d59",
    "glue10": "f935586bd3d3a4a7c1ef98c28e43dac132516f12f411aef8151de62f4c93dd4c",
    "glue3": "887b9b012a34fd3ae0a144ed6d76db2d09c0191d28804225cb88098fad9a9641",
    "glue6": "07c2a1e6f2d531fe5d9be9db8df1cee1adc1e710ae6d62413e8356ecbf92597d",
    "hole151": "2678d5eb1009da6baafc6cd6485c502ac18f9e31daf9322b5c75583e3470b27c",
    "path300": "22eea6fd7ae56392091707ea06548e7233532b9022cccad91bc002e7a4c44dfa",
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_answers_match_their_pins(name):
    assert digest(GRAPHS[name]()) == PINS[name]


if __name__ == "__main__":
    for name in sorted(GRAPHS):
        print(f'    "{name}": "{digest(GRAPHS[name]())}",')
