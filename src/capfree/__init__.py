"""Structure and algorithms for (cap, even-hole)-free graphs.

A library plus CLI implementing clique-cutset decomposition, skeleton
extraction, recognition with certificates, bounded-treewidth coloring and
maximum weight stable set for (cap, even-hole)-free and (cap, 4-hole)-free
odd-signable graphs, together with brute-force oracles and a certified
instance generator.
"""

from .construct import (Ear, EarSequence, GeneratorParams, generate_instance,
                        glue_atoms, random_skeleton, skeleton_from_ears,
                        triangulation_from_ears, validate_good_ear)
from .decomposition import (DecompositionNode, DecompositionTree,
                            clique_cutset_tree, find_clique_cutset,
                            tree_to_dot)
from .graphs import (Graph, GraphFormatError, add_universal_clique, blow_up,
                     complete, cube, gnp, hajos, hole, induced_subgraph,
                     parse_graph, path, serialize_graph, vertex_set)
from .oracles import (BruteResult, CertificateError, ForbiddenWitness,
                      SearchBudgetExceeded, brute_solve, certify,
                      enumerate_chordless_cycles, find_forbidden_induced,
                      holes_of, odd_signable_signing, verify_witness)
from .recognition import (RecognitionVerdict, detect_4hole, detect_cap_fast,
                          recognize)
from .rng import Xoshiro256StarStar
from .solvers import (StableSetResult, UnsupportedInstanceError,
                      chromatic_number, clique_number, combine_colorings,
                      greedy_color, is_proper_coloring, mwss, q_color,
                      q_color_graph)
from .treewidth import (NiceDecomposition, TreeDecomposition,
                        min_fill_decomposition, nice_decomposition,
                        skeleton_tree_decomposition)
from .twins import (SkeletonDecomposition, SkeletonReject,
                    clique_number_via_skeleton, extract_skeleton,
                    lift_tree_decomposition, reconstruct_atom, twin_classes)

__all__ = [name for name in dir() if not name.startswith("_")]
