"""hodgepath: exact homotopy computations for commutative dg algebras.

Kernel: exact scalars over Q and quadratic imaginary extensions, sparse
graded-commutative algebra with Koszul signs, exact linear algebra.  On top:
polynomial path objects with their structural maps, homotopy verification and
lifting, mapping-path factorizations, Sullivan minimal models, filtered
spectral sequences with decalage, zig-zag diagram rectification, and mixed
Hodge diagram verification with Hodge structures on homotopy groups.
"""

from .scalars import Field, QQ, Scalar
from .algebra import (AlgebraError, CutoffError, Element, FreeCdga, FreeMorphism,
                      Generator, LinearMap, Morphism, ProductCdga, SubCdga,
                      TableBasisElement, TableCdga, compose, extend_scalars,
                      identity_morphism, linear_morphism)
from .homology import betti_numbers, cohomology, induced_map, is_quasi_iso, quasi_iso_report
from .ops import (check_cdga, differentiate, euler_characteristic, indecomposables,
                  normalize, table_presentation)
from .paths import (BudgetError, DoublePath, Homotopy, MappingPath, PathAlgebra,
                    c_hat, constant_homotopy, coproduct, coproduct_prime, delta,
                    folding, integrate, interchange, iota, keyed, mapping_path,
                    p5_lift, pair_paths, path_like, path_linear_map, path_of,
                    structural_map, symmetry, verify_homotopy)
from .algebra import is_surjective_at, morphism_matrix, solve_preimage
from .lifting import (LiftObstruction, fill_square, free_lift, homotopy_add,
                      lift_homotopy)
from .filtered import (FilteredComplex, SpectralSequence, decalage, filtered_complex, gr,
                       is_Er_quasi_iso, path_10, r_path, spectral_page, spectral_sequence,
                       strictness_check)
from .sullivan import (MinimalModel, homotopy_between_lifts, homotopy_groups,
                       is_minimal, lift_against_weak_equivalence, minimal_model)
from .diagrams import (Arrow, Diagram, DiagramMorphism, HoHomotopy, HoMorphism,
                       IndexCategory, build_ho_homotopy, compose_ho,
                       diagram_cofibrant_model, evaluate_zigzag, ho_morphisms_equal,
                       identity_ho, lift_ho_through_trivial_fibration, promote_strict,
                       rectify, reflexive_ho_homotopy, span_zigzag,
                       validate_diagram, validate_diagram_morphism,
                       validate_ho_homotopy, validate_ho_morphism,
                       vertex_constant_homotopy)
from .hodge import (MhsStructure, MixedHodgeDiagram, check_mhd, degeneration_check,
                    indecomposables_diagram, mixed_hodge_dga_diagram, pi_star,
                    pi_star_induced_map, stokes_ho_report, transport_rational_structure)
from .documents import (DocumentError, build_dga, build_diagram, build_homorphism,
                        build_homotopy, build_mhd, dga_doc, element_expr,
                        load_document, parse_document, serialize)

__version__ = "0.1.0"
