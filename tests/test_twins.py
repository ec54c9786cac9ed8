import random
from itertools import accumulate

import pytest

from capfree.construct import (TARGET_CLASSES, GeneratorParams,
                               generate_instance, random_skeleton)
from capfree.decomposition import clique_cutset_tree
from capfree.graphs import (Graph, add_universal_clique, blow_up, complete,
                            gnp, hole, induced_subgraph, vertex_set)
from capfree.oracles import brute_solve
from capfree.twins import (COMPLETE_ATOM, SkeletonDecomposition,
                           SkeletonReject,
                           clique_number_via_skeleton, extract_skeleton,
                           reconstruct_atom, twin_classes,
                           twin_classes_quadratic)

OCTAHEDRON = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                       if abs(u - v) != 3])


def test_twin_classes_complete():
    assert twin_classes(complete(4)) == [(0, 1, 2, 3)]


def test_twin_classes_c4():
    assert twin_classes(hole(4)) == [(0,), (1,), (2,), (3,)]


def test_twin_classes_blown_c5():
    g = blow_up(hole(5), [2] * 5)
    expected = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    assert twin_classes(g) == expected
    assert twin_classes_quadratic(g) == expected


@pytest.mark.parametrize("seed", range(50))
def test_refinement_matches_quadratic(seed):
    g = gnp(4 + seed % 9, (0.2, 0.45, 0.7)[seed % 3], 808 + seed)
    assert twin_classes(g) == twin_classes_quadratic(g)


@pytest.mark.parametrize("seed", range(40))
def test_twin_classes_are_the_blow_up_classes(seed):
    """A skeleton has no true twins, so the twin classes of its blow-up
    with a universal clique are the blown-up cliques, plus the universal
    clique when there is one; labels are shuffled so that classes
    interleave."""
    rng = random.Random(seed)
    skeleton, _ = random_skeleton(GeneratorParams(
        seed=seed, ear_count=seed % 3, target_class=TARGET_CLASSES[seed % 2]))
    sizes = [rng.randint(1, 3) for _ in skeleton.vertices()]
    universal = rng.randint(0, 2)
    g = add_universal_clique(blow_up(skeleton, sizes), universal)
    label = list(g.vertices())
    rng.shuffle(label)
    g = Graph(g.n, [(min(label[u], label[v]), max(label[u], label[v]))
                    for u, v in g.edges()])
    # Blocks are contiguous before the shuffle, the universal clique last.
    ends = list(accumulate([0, *sizes, universal]))
    expected = sorted(vertex_set(label[u] for u in range(a, b))
                      for a, b in zip(ends, ends[1:]) if a < b)
    assert twin_classes(g) == expected
    assert twin_classes_quadratic(g) == expected


@pytest.mark.parametrize("seed", range(20))
def test_extracted_classes_are_the_twin_classes_of_the_rest(seed):
    # A bipartite, so triangle-free, base; shuffled ids, so universal
    # vertices and classes interleave.
    g = gnp(4 + seed % 6, (0.3, 0.5, 0.8)[seed % 3], 1808 + seed)
    g = Graph(g.n, [(u, v) for u, v in g.edges() if (u + v) % 2])
    g = add_universal_clique(blow_up(g, [1 + (v + seed) % 3
                                         for v in g.vertices()]), seed % 3)
    ids = sorted(g.vertices(), key=lambda v: (v * 7 + seed) % g.n)
    g = Graph(g.n, [(min(ids[u], ids[v]), max(ids[u], ids[v]))
                    for u, v in g.edges()])
    sd = extract_skeleton(g)
    assert isinstance(sd, SkeletonDecomposition)
    assert sd.universal == tuple(v for v in g.vertices()
                                 if g.degree(v) == g.n - 1)
    rest = [v for v in g.vertices() if v not in sd.universal]
    core, back = induced_subgraph(g, rest)
    assert list(sd.classes) == [tuple(back[u] for u in cls)
                                for cls in twin_classes_quadratic(core)]


def test_extract_wheel():
    wheel = add_universal_clique(hole(5), 1)
    sd = extract_skeleton(wheel)
    assert sd.universal == (5,)
    assert sd.classes == ((0,), (1,), (2,), (3,), (4,))
    assert sd.skeleton == hole(5)
    assert reconstruct_atom(sd) == wheel


def test_extract_blown_c5():
    g = blow_up(hole(5), [2] * 5)
    sd = extract_skeleton(g)
    assert sd.universal == ()
    assert all(len(cls) == 2 for cls in sd.classes)
    assert sd.skeleton == hole(5)
    assert reconstruct_atom(sd) == g


def test_extract_complete():
    assert extract_skeleton(complete(6)) == COMPLETE_ATOM
    assert extract_skeleton(complete(1)) == COMPLETE_ATOM


def test_extract_rejects_octahedron():
    reject = extract_skeleton(OCTAHEDRON)
    assert isinstance(reject, SkeletonReject)
    assert reject.kind == "triangle"
    assert OCTAHEDRON.is_clique(reject.vertices)


def test_hajos_is_a_blow_up_of_c5():
    from capfree.graphs import hajos
    sd = extract_skeleton(hajos())
    assert sd.universal == ()
    assert sorted(len(c) for c in sd.classes) == [1, 1, 1, 2, 2]
    assert sd.skeleton.m == 5 and sd.skeleton.n == 5
    assert reconstruct_atom(sd) == hajos()


def test_clique_number_formula():
    g1 = blow_up(hole(5), [2] * 5)
    assert clique_number_via_skeleton(extract_skeleton(g1)) == 4
    wheel = add_universal_clique(hole(5), 1)
    assert clique_number_via_skeleton(extract_skeleton(wheel)) == 3
    assert clique_number_via_skeleton(extract_skeleton(hole(7))) == 2


@pytest.mark.parametrize("sizes,universal", [
    ((2, 2, 2, 2, 2), 0),
    ((1, 3, 1, 2, 1), 1),
    ((2, 1, 1, 1, 2), 2),
    ((4, 1, 2, 1, 1, 2, 1), 0),
])
def test_formula_matches_brute_force(sizes, universal):
    base = hole(len(sizes))
    atom = add_universal_clique(blow_up(base, list(sizes)), universal)
    sd = extract_skeleton(atom)
    assert clique_number_via_skeleton(sd) \
        == brute_solve(atom, "max-clique").value
    assert reconstruct_atom(sd) == atom


def test_round_trip_preserves_weights():
    g = blow_up(hole(5), [2] * 5).with_weights(list(range(10)))
    sd = extract_skeleton(g)
    assert reconstruct_atom(sd).weights == g.weights


def test_singleton_classes_reconstruct_to_skeleton():
    sd = extract_skeleton(hole(7))
    assert sd.skeleton == hole(7)
    assert reconstruct_atom(sd) == hole(7)


def _instances():
    for seed in range(120):
        yield gnp(6 + seed % 7, (0.2, 0.3, 0.45, 0.6)[seed % 4], 4000 + seed)
    for seed in range(16):
        yield generate_instance(GeneratorParams(
            seed=seed, ear_count=1 + seed % 2, max_ear_length=6,
            max_blowup=1 + seed % 3, max_universal=seed % 2,
            glue_count=seed % 4, target_class=TARGET_CLASSES[seed % 2],
            base_length=5))[0]


def test_skeletons_of_atoms_have_no_clique_cutset():
    """extract_skeleton has no cutset check of its own: on a leaf of the
    clique-cutset tree, a skeleton clique cutset K would lift to the atom
    clique cutset classes(K) plus the universal clique."""
    checked = 0
    for g in _instances():
        for atom_vs in clique_cutset_tree(g).atoms():
            sd = extract_skeleton(induced_subgraph(g, atom_vs)[0])
            if isinstance(sd, SkeletonDecomposition):
                assert brute_solve(sd.skeleton, "clique-cutset").value == 0
                checked += 1
    assert checked >= 50
