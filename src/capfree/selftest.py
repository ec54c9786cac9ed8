"""The fixture acceptance suite: one callable per criterion.

Each criterion returns a CriterionResult with pass/fail, elapsed seconds,
and a one-line detail.  The CLI `selftest` command and the pytest
acceptance module both run these, so the suite has a single source of
truth.  Instance corpora are cached across criteria.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .construct import (TARGET_CLASSES, GeneratorParams, generate_instance,
                        random_skeleton, skeleton_from_ears,
                        triangulation_from_ears)
from .decomposition import decompose
from .graphs import (Graph, add_universal_clique, blow_up, complete, cube,
                     gnp, hajos, hole, path)
from .oracles import (brute_solve, find_any_forbidden,
                      find_forbidden_induced, odd_signable_signing,
                      verify_witness)
from .recognition import detect_cap_fast, recognize
from .rng import Xoshiro256StarStar
from .solvers import (ceil_three_halves, chromatic_number, greedy_color,
                      is_proper_coloring, mwss)
from .treewidth import (TreeDecomposition, chordal_clique_number,
                        skeleton_tree_decomposition)
from .twins import (SkeletonDecomposition, clique_number_via_skeleton,
                    extract_skeleton, lift_tree_decomposition, twin_classes,
                    twin_classes_quadratic)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    seconds: float
    detail: str


def standard_params(seed: int) -> GeneratorParams:
    """Parameter schedule for the 200-instance corpus (n stays under 60)."""
    cls = TARGET_CLASSES[seed % 2]
    blow = 1 + seed % 3
    ears = (seed // 3) % 3
    if blow == 3:
        ears = min(ears, 1)
    glue = 1 if seed % 5 == 0 else 0
    if glue:
        blow = min(blow, 2)
        ears = min(ears, 1)
    universal = (seed // 7) % 2
    return GeneratorParams(seed=seed, ear_count=ears, max_ear_length=6,
                           max_blowup=blow, max_universal=universal,
                           glue_count=glue, target_class=cls)


@lru_cache(maxsize=1)
def standard_instances() -> tuple[tuple[int, Graph, dict], ...]:
    return tuple((seed, *generate_instance(standard_params(seed)))
                 for seed in range(1, 201))


@lru_cache(maxsize=1)
def small_inclass_instances() -> tuple[tuple[int, Graph, dict], ...]:
    """100 in-class instances with at most 14 vertices."""
    out = []
    seed = 0
    while len(out) < 100:
        seed += 1
        params = GeneratorParams(seed=seed, ear_count=0,
                                 max_blowup=1 + seed % 2,
                                 max_universal=seed % 2,
                                 target_class=TARGET_CLASSES[seed % 2])
        g, prov = generate_instance(params)
        if g.n <= 14:
            out.append((seed, g, prov))
    return tuple(out)


@lru_cache(maxsize=1)
def mwss_corpus() -> tuple[tuple[str, Graph], ...]:
    """150 weighted instances with at most 20 vertices: in-class ones
    (random weights in [0, 100]) plus gnp fallbacks."""
    out: list[tuple[str, Graph]] = []
    seed = 0
    while len(out) < 90:
        seed += 1
        params = GeneratorParams(seed=seed, ear_count=seed % 2,
                                 max_ear_length=6,
                                 max_blowup=1 + seed % 2,
                                 max_universal=seed % 2,
                                 glue_count=seed % 3 == 0,
                                 target_class=TARGET_CLASSES[seed % 2])
        g, _ = generate_instance(params)
        if g.n <= 20:
            rng = Xoshiro256StarStar(1000 + seed)
            out.append((f"inclass-{seed}",
                        g.with_weights([rng.below(101)
                                        for _ in range(g.n)])))
    for i in range(60):
        rng = Xoshiro256StarStar(5000 + i)
        g = gnp(6 + i % 7, (0.2, 0.4, 0.6)[i % 3], 5000 + i)
        out.append((f"gnp-{i}",
                    g.with_weights([rng.below(101) for _ in range(g.n)])))
    return tuple(out)


def skeleton_params(seed: int) -> GeneratorParams:
    return GeneratorParams(seed=seed, ear_count=seed % 7, max_ear_length=6,
                           target_class=TARGET_CLASSES[seed % 2])


# The named fixture graphs: the head of small_graph_pool, and the graphs
# the criteria name.
FIXTURES: dict[str, Graph] = {
    "C4": hole(4), "C5": hole(5), "C6": hole(6), "C7": hole(7),
    "K4": complete(4), "K5": complete(5), "cube": cube(),
    "hajos": hajos(), "P5": path(5),
    "even-wheel": add_universal_clique(hole(4), 1),
    "wheel5": add_universal_clique(hole(5), 1),
    "K23": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
    "prism": Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                       (0, 3), (1, 4), (2, 5)]),
    "house": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)]),
    "G1": blow_up(hole(5), [2] * 5),
}


@lru_cache(maxsize=1)
def small_graph_pool() -> tuple[tuple[str, Graph], ...]:
    """Fixtures plus gnp graphs with at most 12 vertices."""
    pool = list(FIXTURES.items())
    for i in range(200 - len(FIXTURES)):
        n = 5 + i % 8
        pool.append((f"gnp-{i}", gnp(n, (0.2, 0.4, 0.6)[i % 3], 777 + i)))
    return tuple(pool)


def _timed(fn: Callable[[], tuple[bool, str]], name: str,
           limit: Optional[float] = None) -> CriterionResult:
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        passed = False
        detail += f" [exceeded {limit:.0f}s time limit]"
    return CriterionResult(name, passed, elapsed, detail)


def criterion_1_extremal_fixture() -> CriterionResult:
    def run():
        g1 = FIXTURES["G1"]
        sd = extract_skeleton(g1)
        omega = clique_number_via_skeleton(sd)
        alpha = mwss(g1).weight
        chi, coloring = chromatic_number(g1)
        ok = (omega, alpha, chi) == (4, 2, 5) \
            and is_proper_coloring(g1, coloring, 5)
        return ok, f"G1: omega={omega} alpha={alpha} chi={chi} (want 4/2/5)"
    return _timed(run, "1 extremal fixture G1", limit=1.0)


def criterion_2_odd_hole_and_hajos() -> CriterionResult:
    def run():
        results = []
        for g, want in ((FIXTURES["C5"], 3), (FIXTURES["hajos"], 4)):
            omega = brute_solve(g, "max-clique").value
            greedy = max(greedy_color(g))
            chi = chromatic_number(g)[0]
            chi_ref = brute_solve(g, "chromatic").value
            results.append(greedy == chi == chi_ref == want
                           and chi <= ceil_three_halves(omega))
        return all(results), "chi(C5)=3 and chi(hajos)=4 via greedy and exact"
    return _timed(run, "2 odd hole and Hajos bounds", limit=1.0)


def criterion_3_degree_bound() -> CriterionResult:
    def run():
        violations = 0
        for seed, g, prov in standard_instances():
            if g.n > 60:
                violations += 1
                continue
            bound = ceil_three_halves(prov["clique_number"]) - 1
            if min(g.degree(v) for v in g.vertices()) > bound:
                violations += 1
        return violations == 0, \
            f"200 instances, min degree <= ceil(3w/2)-1, {violations} violations"
    return _timed(run, "3 degree bound on 200 instances", limit=120.0)


def criterion_4_greedy_bound() -> CriterionResult:
    def run():
        violations = 0
        for seed, g, prov in standard_instances():
            colors = greedy_color(g)
            if not is_proper_coloring(g, colors):
                violations += 1
            elif max(colors) > ceil_three_halves(prov["clique_number"]):
                violations += 1
        return violations == 0, \
            f"greedy <= ceil(3w/2) colors on 200 instances, {violations} violations"
    return _timed(run, "4 greedy coloring bound", limit=120.0)


def criterion_5_skeleton_treewidth() -> CriterionResult:
    def run():
        violations = 0
        for seed in range(1, 101):
            skeleton, es = random_skeleton(skeleton_params(seed))
            if skeleton.n > 40:
                violations += 1
                continue
            td = skeleton_tree_decomposition(skeleton)
            if not (td.width <= 5 and td.is_valid(skeleton)):
                violations += 1
                continue
            tri = triangulation_from_ears(es)
            if chordal_clique_number(tri) > 6 or \
                    skeleton_from_ears(es) != skeleton:
                violations += 1
        return violations == 0, \
            f"100 skeletons: width <= 5 and chordal ear triangulation " \
            f"with omega <= 6, {violations} violations"
    return _timed(run, "5 skeleton treewidth <= 5", limit=300.0)


def criterion_6_atom_treewidth() -> CriterionResult:
    def run():
        violations = atoms = 0
        for seed, g, prov in standard_instances():
            for atom in decompose(g)[1]:
                atoms += 1
                if atom.complete:
                    td = TreeDecomposition(
                        (tuple(atom.graph.vertices()),) if atom.graph.n
                        else (), ())
                    omega = atom.graph.n
                else:
                    sd = atom.extracted
                    if not isinstance(sd, SkeletonDecomposition):
                        violations += 1
                        continue
                    td = lift_tree_decomposition(
                        skeleton_tree_decomposition(sd.skeleton), sd)
                    omega = clique_number_via_skeleton(sd)
                if not td.is_valid(atom.graph) or td.width > 6 * omega - 1:
                    violations += 1
        return violations == 0, \
            f"{atoms} atoms: lifted width <= 6*omega-1, {violations} violations"
    return _timed(run, "6 atom treewidth <= 6w-1", limit=300.0)


def criterion_7_chromatic_equivalence() -> CriterionResult:
    def run():
        mismatches = 0
        for seed, g, prov in small_inclass_instances():
            if chromatic_number(g)[0] != brute_solve(g, "chromatic").value:
                mismatches += 1
        for i in range(100):
            g = gnp(5 + i % 6, (0.3, 0.5)[i % 2], 31337 + i)
            if chromatic_number(g)[0] != brute_solve(g, "chromatic").value:
                mismatches += 1
        return mismatches == 0, \
            f"chromatic vs brute on 100 in-class + 100 gnp: {mismatches} mismatches"
    return _timed(run, "7 chromatic number equivalence", limit=300.0)


def criterion_8_mwss_equivalence() -> CriterionResult:
    def run():
        mismatches = 0
        for name, g in mwss_corpus():
            mine = mwss(g)
            ref = brute_solve(g, "mwss")
            if mine.weight != ref.value or not g.is_stable(mine.vertices):
                mismatches += 1
        return mismatches == 0, \
            f"mwss vs brute on {len(mwss_corpus())} weighted instances: " \
            f"{mismatches} mismatches (reweighting invariant asserted inline)"
    return _timed(run, "8 mwss equivalence and reweighting", limit=300.0)


def criterion_9_cap_detector() -> CriterionResult:
    def run():
        mismatches = 0
        for i in range(200):
            g = gnp(6 + i % 7, (0.2, 0.4, 0.6)[i % 3], 91000 + i)
            fast = detect_cap_fast(g)
            naive = find_forbidden_induced(g, "cap")
            if (fast is None) != (naive is None):
                mismatches += 1
            elif fast is not None and not verify_witness(g, fast):
                mismatches += 1
        fixtures_ok = (detect_cap_fast(FIXTURES["house"]) is not None
                       and detect_cap_fast(FIXTURES["C6"]) is None
                       and detect_cap_fast(FIXTURES["G1"]) is None)
        return mismatches == 0 and fixtures_ok, \
            f"fast vs naive cap on 200 gnp: {mismatches} mismatches; " \
            f"house/C6/G1 fixtures {'ok' if fixtures_ok else 'BAD'}"
    return _timed(run, "9 cap detector equivalence", limit=120.0)


def criterion_10_twin_grouping() -> CriterionResult:
    def run():
        mismatches = sum(
            1 for name, g in small_graph_pool()
            if twin_classes(g) != twin_classes_quadratic(g))
        return mismatches == 0, \
            f"twin grouping vs quadratic on {len(small_graph_pool())} " \
            f"graphs: {mismatches} mismatches"
    return _timed(run, "10 twin grouping equivalence", limit=60.0)


def criterion_11_recognition() -> CriterionResult:
    def run():
        problems = []
        for seed, g, prov in standard_instances():
            verdict = recognize(g, prov["params"]["target_class"])
            if not verdict.accepted:
                problems.append(f"instance {seed} not accepted")
        for name in ("even-wheel", "K23", "prism", "house", "C4"):
            g = FIXTURES[name]
            for cls in TARGET_CLASSES:
                verdict = recognize(g, cls)
                if verdict.status != "rejected" or \
                        not verify_witness(g, verdict.witness):
                    problems.append(f"{name} not rejected with witness")
        hub_over_even_hole = add_universal_clique(hole(6), 1)
        verdict = recognize(hub_over_even_hole, "cap-4hole-odd-signable")
        if verdict.status != "rejected" or verdict.witness.kind != "even-wheel":
            problems.append("C6+universal: expected even-wheel witness")
        verdict2 = recognize(hub_over_even_hole, "cap-even-hole-free")
        if verdict2.status != "rejected" or verdict2.witness.kind != "even-hole":
            problems.append("C6+universal: expected even-hole witness")
        return not problems, \
            "200 accepted, fixtures rejected with re-checkable witnesses" \
            + ("" if not problems else f"; problems: {problems[:3]}")
    return _timed(run, "11 recognition soundness", limit=300.0)


def criterion_12_odd_signability_crosscheck() -> CriterionResult:
    def run():
        disagreements = 0
        for name, g in small_graph_pool():
            if g.n > 12:
                continue
            signing = odd_signable_signing(g)
            witness = find_any_forbidden(g, ("even-wheel", "theta", "prism"))
            if (signing is None) != (witness is not None):
                disagreements += 1
        return disagreements == 0, \
            f"signing none <=> even wheel/theta/prism found: " \
            f"{disagreements} disagreements"
    return _timed(run, "12 odd-signability oracle crosscheck", limit=300.0)


def criterion_13_performance() -> CriterionResult:
    def run():
        p = 1000 / (200 * 199 / 2)
        g = gnp(200, p, 424242)
        start = time.perf_counter()
        detect_cap_fast(g)
        elapsed = time.perf_counter() - start
        return elapsed < 60.0, \
            f"cap detection on gnp(200) with {g.m} edges in {elapsed:.1f}s"
    return _timed(run, "13 cap detector at n=200", limit=60.0)


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1_extremal_fixture,
    criterion_2_odd_hole_and_hajos,
    criterion_3_degree_bound,
    criterion_4_greedy_bound,
    criterion_5_skeleton_treewidth,
    criterion_6_atom_treewidth,
    criterion_7_chromatic_equivalence,
    criterion_8_mwss_equivalence,
    criterion_9_cap_detector,
    criterion_10_twin_grouping,
    criterion_11_recognition,
    criterion_12_odd_signability_crosscheck,
    criterion_13_performance,
)


def run_all(report=print) -> list[CriterionResult]:
    results = []
    for criterion in ALL_CRITERIA:
        result = criterion()
        results.append(result)
        status = "pass" if result.passed else "FAIL"
        report(f"[{status}] {result.name}: {result.detail} "
               f"({result.seconds:.1f}s)")
    return results
