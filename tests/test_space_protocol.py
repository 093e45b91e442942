"""The space protocol: every space names the keyed algebra holding its elements.

A keyed algebra is its own `ambient`; a `SubCdga` (a mapping path, a double
path, a square-boundary target, the path object of a subalgebra) names the
algebra it is cut from.  The zero, the unit and every basis element of a
space live in its `ambient`, so no caller has to tell the two kinds apart
to find where a space's elements are.
"""

import pytest

from helpers import ms2, rho_ms2_s2
from hodgepath import (AlgebraError, CutoffError, DoublePath, FilteredComplex, FreeCdga,
                       FreeMorphism, Generator, PathAlgebra, ProductCdga, SubCdga, keyed,
                       mapping_path, path_of)
from hodgepath.algebra import GradedAlgebra
from hodgepath.lifting import boundary_square_target


def _spaces():
    _, A, rho = rho_ms2_s2(4)
    B = FreeCdga([Generator("b1", 1)], 4, name="B")
    mp = mapping_path(rho, budget=2)
    return {
        "FreeCdga": ms2(4),
        "TableCdga": A,
        "ProductCdga": ProductCdga([A, B]),
        "PathAlgebra": path_of(B, 2),
        "P(SubCdga)": path_of(mp.space, 2),
        "MappingPath": mp.space,
        "DoublePath": DoublePath(rho, rho, path_of(A, 2)).space,
        "square boundary": boundary_square_target(path_of(B, 2))[0],
    }


SPACES = list(_spaces())


@pytest.mark.parametrize("name", SPACES)
def test_every_element_of_a_space_lives_in_its_ambient(name):
    X = _spaces()[name]
    amb = X.ambient
    assert isinstance(amb, GradedAlgebra)
    assert amb.ambient is amb
    assert X.zero().alg is amb and X.unit().alg is amb
    assert (X.has_weights, X.has_hodge) == (amb.has_weights, amb.has_hodge)
    X.check_degree(X.N)
    with pytest.raises(CutoffError):
        X.check_degree(X.N + 1)
    for n in range(0, 3):
        basis = X.basis(n)
        assert len(basis) == X.dim(n)
        assert all(b.alg is amb for b in basis)
        assert all(X.from_coords(n, X.coords(b, n)) == b for b in basis)


@pytest.mark.parametrize("name", ["PathAlgebra", "P(SubCdga)"])
def test_keyed_path_object_is_its_ambient(name):
    P = _spaces()[name]
    assert isinstance(P.ambient, PathAlgebra)
    assert keyed(P) is P.ambient


@pytest.mark.parametrize("name", ["FreeCdga", "TableCdga", "MappingPath", "DoublePath"])
def test_keyed_rejects_a_space_that_is_no_path_object(name):
    with pytest.raises(AlgebraError, match="not a path object"):
        keyed(_spaces()[name])


def test_free_morphism_into_a_subalgebra_takes_images_in_its_ambient():
    M, _, rho = rho_ms2_s2(4)
    mp = mapping_path(rho, budget=2)
    S = mp.space
    C = FreeCdga([Generator("c2", 2)], 4, name="C")
    e2 = M.generator("e2")
    # an element of a factor of the ambient, and one of the source
    for wrong in (e2, C.generator("c2")):
        with pytest.raises(AlgebraError, match="wrong algebra"):
            FreeMorphism(C, S, {"c2": wrong})
    g = FreeMorphism(C, S, {"c2": mp.iota(e2)})
    assert g(C.generator("c2")) == mp.iota(e2)
    assert S.coords(g(C.generator("c2") * 3), 2)
    assert g(C.unit()) == S.unit()


def test_filtration_of_a_subalgebra_is_checked_in_the_constructor():
    # the ambient of a mapping path of unweighted algebras has no W filtration
    S = _spaces()["MappingPath"]
    assert not S.has_weights and not S.ambient.has_weights
    with pytest.raises(AlgebraError, match="carries no W filtration"):
        FilteredComplex(S, "W")
    T = FreeCdga([Generator("a2", 2, weight=2)], 3, name="T")
    U = SubCdga(T, [])
    assert U.has_weights and not U.has_hodge
    assert FilteredComplex(U, "W").dim(2) == 1
    with pytest.raises(AlgebraError, match="carries no F filtration"):
        FilteredComplex(U, "F")
