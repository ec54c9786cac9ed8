import hashlib
import random
from heapq import merge
from itertools import combinations

import pytest

from capfree import oracles
from capfree.construct import GeneratorParams, generate_instance
from capfree.graphs import (Graph, add_universal_clique, blow_up, complete,
                            cube, gnp, hole, induced_subgraph, path)
from capfree.oracles import (DEFAULT_BUDGET, ForbiddenWitness,
                             SearchBudgetExceeded,
                             brute_solve, canonical_cycle,
                             chordless_cycles_through, cycle_order,
                             cycle_weight, enumerate_chordless_cycles,
                             find_any_forbidden, find_forbidden_induced,
                             holes_of, odd_signing, odd_signable_signing,
                             verify_witness)
from capfree.selftest import small_graph_pool
from capfree.solvers import _multicolor_dp, _stable_dp, greedy_color
from capfree.treewidth import (min_fill_decomposition, nice_decomposition,
                               skeleton_tree_decomposition)
from test_cutset_scan import disjoint_union

EVEN_WHEEL = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0),
                       (4, 0), (4, 1), (4, 2), (4, 3)])
K23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
PRISM = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                  (0, 3), (1, 4), (2, 5)])
HOUSE = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)])


def subset_induced_cycles(g, length):
    """Dumb reference: count vertex subsets inducing a cycle of the given
    length."""
    count = 0
    for sub in combinations(range(g.n), length):
        s, _ = induced_subgraph(g, sub)
        if s.m == length and all(s.degree(v) == 2 for v in s.vertices()):
            count += 1
    return count


def test_c5_has_one_chordless_cycle():
    assert enumerate_chordless_cycles(hole(5)) == [(0, 1, 2, 3, 4)]


def test_k4_has_four_triangles():
    cycles = enumerate_chordless_cycles(complete(4))
    assert sorted(cycles) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_cube_chordless_4_cycles():
    # Frozen from the subset-check oracle: the cube has 6 induced C4
    # (and 4 induced C6; nothing longer is chordless).
    g = cube()
    cycles = enumerate_chordless_cycles(g)
    by_len = {}
    for c in cycles:
        by_len[len(c)] = by_len.get(len(c), 0) + 1
    assert subset_induced_cycles(g, 4) == 6
    assert subset_induced_cycles(g, 6) == 4
    assert by_len == {4: 6, 6: 4}


@pytest.mark.parametrize("seed", range(20))
def test_enumeration_matches_subset_oracle(seed):
    g = gnp(8, 0.45, 620 + seed)
    cycles = enumerate_chordless_cycles(g)
    assert len(cycles) == len(set(cycles)), "no duplicates"
    for length in range(3, 9):
        assert sum(1 for c in cycles if len(c) == length) \
            == subset_induced_cycles(g, length)
    for c in cycles:
        assert c[0] == min(c) and c[1] < c[-1], "canonical rotation"


def test_max_len_prunes():
    # A cycle-length cap is a path-length cap one less inside the search,
    # so check it at every cap from below a triangle to past most holes.
    for seed in range(6):
        g = gnp(10, (0.4, 0.3, 0.5)[seed % 3], 99 + seed)
        full = enumerate_chordless_cycles(g)
        for max_len in range(2, 9):
            assert enumerate_chordless_cycles(g, max_len=max_len) \
                == [c for c in full if len(c) <= max_len], (seed, max_len)


def test_c4_is_odd_signable():
    signing = odd_signable_signing(hole(4))
    assert signing is not None
    assert cycle_weight((0, 1, 2, 3), signing) % 2 == 1


def test_even_wheel_not_odd_signable():
    assert odd_signable_signing(EVEN_WHEEL) is None


def test_theta_not_odd_signable():
    assert odd_signable_signing(K23) is None


def test_signing_verifies_on_every_cycle():
    g = blow_up(hole(7), [1, 2, 1, 1, 2, 1, 1])
    signing = odd_signable_signing(g)
    assert signing is not None
    for cyc in enumerate_chordless_cycles(g):
        assert cycle_weight(cyc, signing) % 2 == 1


def test_find_even_hole():
    w = find_forbidden_induced(hole(6), "even-hole")
    assert w is not None and len(w.vertices) == 6
    assert find_forbidden_induced(hole(5), "even-hole") is None


def test_hole_recheck_rejects_what_is_no_hole():
    def recheck(g, cyc):
        return verify_witness(g, ForbiddenWitness("even-hole", cyc, (cyc,)))
    six = tuple(range(6))
    assert recheck(hole(6), six) and recheck(hole(6), six[::-1])
    assert not recheck(Graph(6, hole(6).edges() + [(0, 3)]), six)
    assert not recheck(path(6), six)
    assert not recheck(hole(6), (0, 2, 1, 3, 4, 5))
    assert not recheck(hole(6), (0, 1, 2, 3, 4, 5, 0, 1))


def test_recheck_rejects_a_malformed_witness_of_every_kind():
    def recheck(g, kind, *parts):
        vertices = tuple(dict.fromkeys(v for p in parts for v in p))
        return verify_witness(g, ForbiddenWitness(kind, vertices, parts))
    assert recheck(complete(3), "triangle", (0, 1, 2))
    assert not recheck(path(3), "triangle", (0, 1, 2))
    assert not recheck(complete(3), "triangle", (0, 1, 1))

    five = tuple(range(5))
    cap = Graph(6, hole(5).edges() + [(5, 0), (5, 1)])
    assert recheck(cap, "cap", five, (5,))
    three = Graph(6, hole(5).edges() + [(5, 0), (5, 1), (5, 2)])
    assert not recheck(three, "cap", five, (5,))
    assert not recheck(cap, "cap", five, (1,))

    six = tuple(range(6))
    four = Graph(7, hole(6).edges() + [(6, 0), (6, 1), (6, 3), (6, 4)])
    assert recheck(four, "even-wheel", six, (6,))
    for seen in ((0, 2, 4), (0, 1, 2, 3, 4)):
        odd = Graph(7, hole(6).edges() + [(6, v) for v in seen])
        assert not recheck(odd, "even-wheel", six, (6,)), seen

    assert recheck(K23, "theta", (0, 2, 1), (0, 3, 1), (0, 4, 1))
    touching = Graph(5, K23.edges() + [(2, 3)])
    assert not recheck(touching, "theta", (0, 2, 1), (0, 3, 1), (0, 4, 1))
    assert not recheck(K23, "theta", (0, 2, 1), (0, 2, 1), (0, 3, 1))
    assert not recheck(K23, "theta", (0, 2, 1), (0, 3, 1), (0, 1))

    assert recheck(PRISM, "prism", (0, 3), (1, 4), (2, 5))
    extra = Graph(6, PRISM.edges() + [(0, 4)])
    assert not recheck(extra, "prism", (0, 3), (1, 4), (2, 5))


def test_recheck_fails_a_witness_with_the_wrong_parts():
    for w in (ForbiddenWitness("cap", (0, 1, 2, 3, 4, 5),
                               ((0, 1, 2, 3), (4, 5))),
              ForbiddenWitness("theta", (0, 1), ((0, 1),)),
              ForbiddenWitness("even-hole", (0, 1, 2, 3), ((0, 1, 2, 3), ())),
              ForbiddenWitness("prism", (0, 1), ((), (0,), (1,))),
              ForbiddenWitness("cap", (0, 1, 2, 3, 9), ((0, 1, 2, 3), (9,))),
              ForbiddenWitness("even-hole", (0, 1, 2, -1), ((0, 1, 2, -1),))):
        assert not verify_witness(hole(5), w), w


def test_recheck_rejects_a_prism_whose_triangles_share_a_vertex():
    # A 4-wheel with hub 0 on the hole 1, 3, 4, 2: its triangles 0, 1, 2
    # and 0, 3, 4 meet in the hub, and it holds no prism.
    wheel = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                      (1, 3), (2, 4)])
    assert find_forbidden_induced(wheel, "prism") is None
    degenerate = ForbiddenWitness("prism", (0, 1, 3, 2, 4),
                                  ((0,), (1, 3), (2, 4)))
    assert not verify_witness(wheel, degenerate)


def test_recheck_rejects_vertices_that_differ_from_the_parts():
    six = tuple(range(6))
    assert verify_witness(hole(6), ForbiddenWitness("even-hole", six, (six,)))
    for vertices in (six[:5], six + (0,), six[:5] + (6,)):
        w = ForbiddenWitness("even-hole", vertices, (six,))
        assert not verify_witness(Graph(7, hole(6).edges()), w), vertices
    w = ForbiddenWitness("cap", six[:5], (six[:5], (4,)))
    assert not verify_witness(Graph(6, hole(5).edges() + [(5, 0), (5, 1)]), w)


def test_find_cap_in_house():
    w = find_forbidden_induced(HOUSE, "cap")
    assert w is not None
    assert verify_witness(HOUSE, w)


def test_even_wheel_sector_parity():
    # Hub on alternating vertices of C6: 3 sectors, odd, so no even wheel.
    alternating = Graph(7, hole(6).edges() + [(6, 0), (6, 2), (6, 4)])
    assert find_forbidden_induced(alternating, "even-wheel") is None
    # Hub on v1, v2, v4, v5: 4 sectors.
    four = Graph(7, hole(6).edges() + [(6, 0), (6, 1), (6, 3), (6, 4)])
    w = find_forbidden_induced(four, "even-wheel")
    assert w is not None and verify_witness(four, w)


def test_find_theta_and_prism():
    theta = find_forbidden_induced(K23, "theta")
    assert theta is not None and verify_witness(K23, theta)
    prism = find_forbidden_induced(PRISM, "prism")
    assert prism is not None and verify_witness(PRISM, prism)
    assert find_forbidden_induced(hole(7), "theta") is None
    assert find_forbidden_induced(hole(7), "prism") is None


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        find_forbidden_induced(hole(4), "pentagon")
    with pytest.raises(ValueError, match="unknown witness kind"):
        verify_witness(hole(4), ForbiddenWitness("pentagon", (0,), ((0,),)))


def test_witnesses_recheck_on_pool():
    for seed in range(40):
        g = gnp(9, 0.45, 4000 + seed)
        for kind in ("even-hole", "4-hole", "cap", "even-wheel", "triangle",
                     "theta", "prism"):
            w = find_forbidden_induced(g, kind)
            if w is not None:
                assert verify_witness(g, w), (seed, kind)


def test_signing_equivalence_small_pool():
    # Odd-signable iff no even wheel, theta or prism.
    for seed in range(30):
        g = gnp(8, 0.4, 8800 + seed)
        signing = odd_signable_signing(g)
        witness = find_any_forbidden(g, ("even-wheel", "theta", "prism"))
        assert (signing is None) == (witness is not None), seed


def test_brute_g1_values():
    g1 = blow_up(hole(5), [2] * 5)
    assert brute_solve(g1, "chromatic").value == 5
    assert brute_solve(g1, "max-clique").value == 4
    assert brute_solve(g1, "mwss").value == 2


def test_brute_weighted_path():
    g = path(3).with_weights([1, 3, 1])
    assert brute_solve(g, "mwss").value == 3


def test_brute_witnesses():
    g = gnp(10, 0.5, 123)
    chrom = brute_solve(g, "chromatic")
    assert len(chrom.witness) == g.n
    assert all(chrom.witness[u] != chrom.witness[v] for u, v in g.edges())
    clique = brute_solve(g, "max-clique")
    assert g.is_clique(clique.witness)
    stable = brute_solve(g, "mwss")
    assert g.is_stable(stable.witness)


def test_brute_clique_cutset():
    found = brute_solve(path(4), "clique-cutset")
    assert found.value == 1 and found.witness in ((1,), (2,))
    none = brute_solve(hole(5), "clique-cutset")
    assert none.value == 0 and none.witness is None
    disconnected = Graph(4, [(0, 1), (2, 3)])
    assert brute_solve(disconnected, "clique-cutset").witness == ()


def test_brute_solve_on_the_empty_graph():
    empty = Graph(0, [])
    chrom = brute_solve(empty, "chromatic")
    assert (chrom.value, chrom.witness) == (0, ())
    cut = brute_solve(empty, "clique-cutset")
    assert (cut.value, cut.witness) == (0, None)


def test_brute_solve_rejects_an_unknown_problem():
    with pytest.raises(ValueError, match="unknown problem"):
        brute_solve(path(4), "max-cut")


def test_brute_guard_reports():
    with pytest.raises(SearchBudgetExceeded,
                       match="brute-force chromatic search ran out of its "
                             "budget of 10 nodes"):
        brute_solve(gnp(20, 0.3, 1), "chromatic", budget=10)
    assert brute_solve(gnp(20, 0.2, 1), "chromatic").value >= 1


GNP30 = gnp(30, 0.5, 1)
K66 = Graph(12, [(i, 6 + j) for i in range(6) for j in range(6)])


def _dp_over_min_fill(dp, args):
    """dp over the nice form of g's min-fill decomposition, with the
    further arguments args(g)."""
    return lambda g, **kw: dp(
        g, nice_decomposition(min_fill_decomposition(g)), *args(g), **kw)


# Each exhaustive search, a graph it answers at its default budget, and a
# budget it runs out of there.  The brute-force clique-cutset search grows
# cliques, so it answers GNP30 by testing its 1,441 cliques.  The DPs count
# their table entries: the stable-set DP takes every vertex of GNP30 at
# weight 1, and the coloring DP colors K6,6 with the colors greedy uses.
BUDGETED_SEARCHES = {
    "width-5": (lambda g, **kw: skeleton_tree_decomposition(g, **kw),
                K66, 0),
    **{problem: (lambda g, problem=problem, **kw:
                 brute_solve(g, problem, **kw), GNP30, 10)
       for problem in ("max-clique", "mwss", "chromatic", "clique-cutset")},
    "stable-set DP": (_dp_over_min_fill(
        _stable_dp, lambda g: ((1 << g.n) - 1, [1] * g.n)), GNP30, 10),
    "coloring DP": (_dp_over_min_fill(
        _multicolor_dp, lambda g: ([1] * g.n, max(greedy_color(g)))),
        K66, 10),
    "chordless-cycles": (enumerate_chordless_cycles, GNP30, 10),
    **{kind: (lambda g, kind=kind, **kw:
              find_forbidden_induced(g, kind, **kw), GNP30, 10)
       for kind in ("even-hole", "theta")},
}


@pytest.mark.parametrize("name", sorted(BUDGETED_SEARCHES))
def test_every_search_stops_at_its_budget(name):
    search, g, small = BUDGETED_SEARCHES[name]
    with pytest.raises(SearchBudgetExceeded,
                       match=f"ran out of its budget of {small} nodes$"):
        search(g, budget=small)
    assert search(g) is not None


def test_brute_solve_takes_its_budget_by_keyword_only():
    with pytest.raises(TypeError):
        brute_solve(hole(5), "chromatic", 5)


def test_chromatic_at_least_clique():
    for seed in range(15):
        g = gnp(9, 0.5, 31 + seed)
        assert brute_solve(g, "chromatic").value \
            >= brute_solve(g, "max-clique").value
    for chordal in (complete(6), path(7),
                    add_universal_clique(complete(3), 2)):
        assert brute_solve(chordal, "chromatic").value \
            == brute_solve(chordal, "max-clique").value


def test_holes_of_excludes_triangles():
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert holes_of(g) == []
    assert len(enumerate_chordless_cycles(g)) == 2


def with_fresh_suffix(g, fresh):
    """g without its last fresh vertices: every edge of g that meets them
    is new."""
    return Graph(g.n - fresh, [(u, v) for u, v in g.edges()
                               if v < g.n - fresh])


@pytest.mark.parametrize("chunk", range(4))
def test_cycles_through_fresh_vertices_merge_into_the_enumeration(chunk):
    # Dense draws hold triangles, and a random suffix of fresh vertices
    # may be empty, one vertex or the whole graph.
    for seed in range(100 * chunk, 100 * chunk + 100):
        n = 5 + seed % 9
        g = gnp(n, (0.2, 0.3, 0.45, 0.6)[seed % 4], 7000 + seed)
        fresh = random.Random(seed).randrange(n + 1)
        new = chordless_cycles_through(g, range(g.n - fresh, g.n))
        old = enumerate_chordless_cycles(with_fresh_suffix(g, fresh))
        assert list(merge(old, new, key=cycle_order)) \
            == enumerate_chordless_cycles(g), seed


def test_enumeration_is_sorted_by_cycle_order_in_canonical_form():
    # A closing vertex comes before every extension of the same prefix:
    # 5 closes the path 0, 1, 2 before 3 extends it, unlike tuple order.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 0)])
    cycles = enumerate_chordless_cycles(g)
    assert cycles == [(0, 1, 2, 5), (0, 1, 2, 3, 4), (0, 4, 3, 2, 5)]
    assert cycles == sorted(cycles, key=cycle_order) != sorted(cycles)
    for cyc in cycles:
        for k in range(len(cyc)):
            turned = cyc[k:] + cyc[:k]
            assert canonical_cycle(turned) == cyc
            assert canonical_cycle(turned[::-1]) == cyc


def test_odd_signing_solves_the_given_cycles():
    g = gnp(10, 0.35, 12)
    cycles = enumerate_chordless_cycles(g)
    assert odd_signing(g, cycles) == odd_signable_signing(g)
    # Without the cycles that block it, an even wheel has a signing.
    assert odd_signable_signing(EVEN_WHEEL) is None
    assert odd_signing(EVEN_WHEEL, holes_of(EVEN_WHEEL)) is not None


def test_odd_signing_reads_its_cycles_as_a_stream(monkeypatch):
    # The three 4-holes of K2,3 use each edge twice, so their equations
    # sum to 0 = 1 at the third, and no later cycle is drawn.
    def stream():
        yield from holes_of(K23)
        raise AssertionError("a cycle was drawn past the contradiction")

    assert odd_signing(K23, stream()) is None
    # A signing is re-checked against every cycle the stream gave.
    checked = []
    weight = oracles.cycle_weight

    def recorded(cyc, signing):
        checked.append(cyc)
        return weight(cyc, signing)

    monkeypatch.setattr(oracles, "cycle_weight", recorded)
    holes = holes_of(EVEN_WHEEL)
    assert odd_signing(EVEN_WHEEL, iter(holes)) is not None
    assert checked == holes


def test_the_cycle_oracles_stop_at_their_first_answer():
    # Listing the chordless cycles of this in-class instance (n = 98)
    # takes more than the default budget, but those of the small graph on
    # vertices 0.. come first, and each answer is among them.
    g, _ = generate_instance(GeneratorParams(
        seed=11, ear_count=3, max_blowup=2, max_universal=1, glue_count=2,
        target_class="cap-4hole-odd-signable"))
    witness = find_forbidden_induced(disjoint_union([hole(6), g]),
                                     "even-hole", budget=DEFAULT_BUDGET)
    assert witness.parts == (tuple(range(6)),)
    assert odd_signable_signing(disjoint_union([K23, g]),
                                budget=DEFAULT_BUDGET) is None


KINDS = ("even-hole", "4-hole", "cap", "theta", "prism", "even-wheel",
         "triangle")

# The sha256 of oracle_outputs over selftest.small_graph_pool(), computed
# before the cycle and path searches shared one induced-path search.
PINNED_ORACLE_DIGEST = (
    "2fce314740a8e60d927eed5a7db80c09e2cf603ba174d44a5712942d7d64b8a7")


def oracle_outputs(g):
    """Every cycle list, witness and signing the oracles give on g."""
    return (enumerate_chordless_cycles(g),
            enumerate_chordless_cycles(g, max_len=5),
            chordless_cycles_through(g, range(g.n // 2, g.n)),
            [find_forbidden_induced(g, kind) for kind in KINDS],
            odd_signable_signing(g))


def test_oracle_outputs_are_pinned():
    digest = hashlib.sha256()
    for name, g in small_graph_pool():
        digest.update(repr((name, oracle_outputs(g))).encode())
    assert digest.hexdigest() == PINNED_ORACLE_DIGEST
