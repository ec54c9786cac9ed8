import hashlib
import json
from heapq import merge

import pytest

from capfree.construct import (Ear, EarSequence, GeneratorParams,
                               generate_instance, glue_atoms, random_skeleton,
                               skeleton_from_ears, triangulation_from_ears,
                               validate_good_ear)
from capfree.decomposition import clique_cutset_tree, find_clique_cutset
from capfree.graphs import (Graph, blow_up, complete, hole, serialize_graph)
from capfree.oracles import (brute_solve, chordless_cycles_through,
                             cycle_order, enumerate_chordless_cycles,
                             find_forbidden_induced, odd_signable_signing)
from capfree.recognition import recognize

C5 = hole(5)
C5_HOLE = (0, 1, 2, 3, 4)


def test_good_ear_long_path_with_middle_link():
    # Ear of length 4 whose apex sees the middle interior: 3 neighbors, odd.
    path = (0, 5, 6, 7, 2)
    ok, reason = validate_good_ear(C5, C5_HOLE, path, 1, (6,))
    assert ok, reason


def test_ear_without_links_is_even():
    path = (0, 5, 6, 7, 2)
    ok, reason = validate_good_ear(C5, C5_HOLE, path, 1, ())
    assert not ok
    assert "even" in reason


def test_short_ear_with_linked_interior():
    # One interior adjacent to the apex: count 3, and the wheel checks
    # pass on a bare 5-hole.
    ok, reason = validate_good_ear(C5, C5_HOLE, (0, 5, 2), 1, (5,))
    assert ok, reason


def test_wheel_condition_rejects():
    # A hub over the host hole adjacent to the apex trips the first wheel
    # condition.
    hub = Graph(6, C5.edges() + [(5, 0), (5, 1), (5, 2)])
    ok, reason = validate_good_ear(hub, C5_HOLE, (0, 6, 7, 8, 9, 10, 2),
                                   1, (8,))
    assert not ok
    assert "wheel" in reason


def test_ear_preconditions_are_errors():
    with pytest.raises(ValueError):
        validate_good_ear(C5, C5_HOLE, (0, 5, 3), 1, (5,))   # z not apex nbr
    with pytest.raises(ValueError):
        validate_good_ear(C5, C5_HOLE, (0, 3, 2), 1, ())     # stale interior
    with pytest.raises(ValueError):
        validate_good_ear(C5, (0, 1, 2), (0, 5, 2), 1, ())   # not a hole


def test_skeleton_with_no_ears_is_the_base_hole():
    params = GeneratorParams(seed=1, ear_count=0, base_length=7)
    skeleton, es = random_skeleton(params)
    assert skeleton == hole(7)
    assert es.base == (0, 1, 2, 3, 4, 5, 6) and es.ears == ()


def test_even_hole_free_target_needs_odd_base():
    with pytest.raises(ValueError):
        random_skeleton(GeneratorParams(seed=1, base_length=6))
    skeleton, _ = random_skeleton(
        GeneratorParams(seed=1, base_length=6,
                        target_class="cap-4hole-odd-signable"))
    assert skeleton == hole(6)


@pytest.mark.parametrize("seed", range(1, 16))
def test_generated_skeletons_pass_oracles(seed):
    params = GeneratorParams(seed=seed, ear_count=seed % 4,
                             max_ear_length=8,
                             target_class=("cap-even-hole-free",
                                           "cap-4hole-odd-signable")[seed % 2])
    skeleton, es = random_skeleton(params)
    assert find_forbidden_induced(skeleton, "triangle") is None
    assert find_forbidden_induced(skeleton, "4-hole") is None
    assert find_clique_cutset(skeleton) is None
    assert odd_signable_signing(skeleton) is not None
    if params.target_class == "cap-even-hole-free":
        assert find_forbidden_induced(skeleton, "even-hole") is None
    assert skeleton_from_ears(es) == skeleton


def test_generation_is_deterministic():
    params = GeneratorParams(seed=77, ear_count=2, max_blowup=2,
                             max_universal=1, glue_count=1)
    a, prov_a = generate_instance(params)
    b, prov_b = generate_instance(params)
    assert serialize_graph(a) == serialize_graph(b)
    assert prov_a == prov_b


def test_blowup_identity_when_sizes_one():
    params = GeneratorParams(seed=5, ear_count=0, max_blowup=1,
                             base_length=5)
    g, prov = generate_instance(params)
    assert g == hole(5)
    assert prov["clique_number"] == 2


def find_g1_seed():
    """First seed whose draws blow every class of a C5 skeleton to size 2."""
    for seed in range(1, 200):
        params = GeneratorParams(seed=seed, ear_count=0, max_blowup=2,
                                 base_length=5)
        g, prov = generate_instance(params)
        if prov["atoms"][0]["blowup_sizes"] == [2, 2, 2, 2, 2]:
            return seed, g
    raise AssertionError("no all-2 blow-up among the first 200 seeds")


def test_generator_can_produce_g1():
    seed, g = find_g1_seed()
    assert seed == 5    # frozen: first all-2 draw under this schedule
    assert g == blow_up(hole(5), [2] * 5)


def test_provenance_clique_number_is_exact():
    for seed in range(1, 13):
        params = GeneratorParams(seed=seed, ear_count=seed % 2,
                                 max_blowup=2, max_universal=1)
        g, prov = generate_instance(params)
        if g.n <= 24:
            assert prov["clique_number"] \
                == brute_solve(g, "max-clique").value


def test_generated_instances_are_recognized():
    for seed in range(1, 13):
        params = GeneratorParams(
            seed=seed, ear_count=seed % 3, max_blowup=1 + seed % 2,
            max_universal=seed % 2, glue_count=seed % 4 == 0,
            target_class=("cap-even-hole-free",
                          "cap-4hole-odd-signable")[seed % 2])
        g, prov = generate_instance(params)
        assert recognize(g, params.target_class).accepted, seed


def test_glue_two_triangles_into_k4_minus_edge():
    tri = complete(3)
    glued, maps = glue_atoms([tri, tri], [(0, 1, (0, 1), (0, 1))])
    assert glued.n == 4 and glued.m == 5
    assert not glued.has_edge(maps[0][2], maps[1][2])


def test_glue_single_atom_identity():
    g, maps = glue_atoms([C5], [])
    assert g == C5 and maps == [[0, 1, 2, 3, 4]]


def test_glue_joint_becomes_cutset():
    a = blow_up(hole(5), [2] * 5)
    joints = [(0, 1, (0, 1), (0, 1))]   # K2 inside one class of each atom
    glued, maps = glue_atoms([a, a], joints)
    assert glued.n == 18
    joint = tuple(maps[0][v] for v in (0, 1))
    assert glued.is_clique(joint)
    found = find_clique_cutset(glued)
    assert found is not None
    atoms = clique_cutset_tree(glued).atoms()
    assert len(atoms) == 2
    assert all(len(atom) == 10 for atom in atoms)
    assert recognize(glued, "cap-even-hole-free").accepted


def test_glue_error_cases():
    tri = complete(3)
    with pytest.raises(ValueError):
        glue_atoms([tri, tri], [(0, 1, (0, 1), (0,))])      # size mismatch
    with pytest.raises(ValueError):
        glue_atoms([hole(4), tri], [(0, 1, (0, 2), (0, 1))])  # not a clique
    with pytest.raises(ValueError):
        glue_atoms([tri, tri], [(0, 1, (0,), (0,)),
                                (1, 0, (1,), (1,))])         # cyclic pattern


def test_glue_keeps_weights():
    p3 = Graph(3, [(0, 1), (1, 2)], [5, 6, 7])
    p2 = Graph(2, [(0, 1)], [7, 9])
    glued, maps = glue_atoms([p3, p2], [(0, 1, (2,), (0,))])
    assert glued.weights == (5, 6, 7, 9)
    assert maps == [[0, 1, 2], [2, 3]]


def test_glue_rejects_identified_vertices_of_different_weight():
    p3 = Graph(3, [(0, 1), (1, 2)], [5, 6, 7])
    p2 = Graph(2, [(0, 1)], [8, 9])
    with pytest.raises(ValueError, match="agree on weight"):
        glue_atoms([p3, p2], [(0, 1, (2,), (0,))])


def test_params_validation():
    with pytest.raises(ValueError):
        GeneratorParams(seed=1, max_ear_length=1)
    with pytest.raises(ValueError):
        GeneratorParams(seed=1, max_blowup=0)
    with pytest.raises(ValueError):
        GeneratorParams(seed=1, target_class="perfect")
    with pytest.raises(ValueError):
        GeneratorParams(seed=1, base_length=4)


def test_ear_shortfall_is_reported():
    # max_ear_length below the smallest feasible good ear: sampling stalls.
    params = GeneratorParams(seed=3, ear_count=2, max_ear_length=4)
    skeleton, es = random_skeleton(params)
    assert es.ears == ()


@pytest.mark.parametrize("path", [(0, 6, 7, 8, 9, 10, 2),
                                  (0, 5, 6, 8, 7, 9, 2),
                                  (0, 5, 6, 7, 8, 3, 2)],
                         ids=["skips-5", "out-of-order", "reuses-3"])
def test_both_ear_builders_reject_interiors_that_are_not_fresh(path):
    # The ear would be good on C5 with fresh ids 5..9; both builders count
    # the vertices one way and refuse anything else with one message.
    ear = Ear(path, 1, (path[3],), C5_HOLE)
    es = EarSequence(C5_HOLE, (ear,))
    messages = []
    for build in (skeleton_from_ears, triangulation_from_ears):
        with pytest.raises(ValueError, match="fresh ids 5..9") as err:
            build(es)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_both_ear_builders_count_the_fresh_ids():
    es = EarSequence(C5_HOLE, (Ear((0, 5, 6, 7, 8, 9, 2), 1, (7,),
                                   C5_HOLE),))
    skeleton, tri = skeleton_from_ears(es), triangulation_from_ears(es)
    assert skeleton.n == tri.n == 10
    assert all(tri.has_edge(u, v) for u, v in skeleton.edges())


def test_holes_through_each_ear_merge_into_the_enumeration():
    # The 16-ear skeleton, rebuilt ear by ear: every old hole stays one,
    # and the new ones all pass through the ear's fresh interior.
    _, es = random_skeleton(GeneratorParams(
        seed=3, ear_count=16, max_ear_length=8, base_length=15))
    assert len(es.ears) == 16
    before = enumerate_chordless_cycles(skeleton_from_ears(
        EarSequence(es.base, ())))
    for k, ear in enumerate(es.ears, 1):
        g = skeleton_from_ears(EarSequence(es.base, es.ears[:k]))
        merged = list(merge(before, chordless_cycles_through(g, ear.interior),
                            key=cycle_order))
        before = enumerate_chordless_cycles(g)
        assert merged == before, k
    assert len(before) == 302


# sha256 over serialize_graph and the sorted-key JSON of the provenance of
# every instance of the grid below, in its order.
GRID_SHA256 = \
    "29f0e8c507075a033b5d8bdc3d9e0da3786f420bba3cd3466798dc8059564d3d"


def test_generator_output_is_pinned():
    # The hosts are drawn by position in the hole list, so a change to its
    # content or order, or to any self-check, shows here.
    digest = hashlib.sha256()
    for seed in range(1, 41):
        for target in ("cap-even-hole-free", "cap-4hole-odd-signable"):
            for ears, glue in ((2, 3), (3, 1), (4, 0)):
                g, provenance = generate_instance(GeneratorParams(
                    seed=seed, ear_count=ears, max_ear_length=8,
                    max_blowup=2, max_universal=1, glue_count=glue,
                    target_class=target))
                digest.update(serialize_graph(g).encode())
                digest.update(json.dumps(provenance, sort_keys=True).encode())
    assert digest.hexdigest() == GRID_SHA256
