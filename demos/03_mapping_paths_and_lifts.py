"""
Mapping-path factorization and lifting
======================================

Every morphism f : A -> B factors through its mapping path
P(f) = {(a, b(t)) : f(a) = b(0)} as a section followed by an endpoint
projection.  The projection p is a surjective quasi-isomorphism, and when f
is a quasi-isomorphism so is q.  Free (Sullivan) algebras lift through such
maps generator by generator, with an explicit homotopy as the certificate.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hodgepath import (FreeCdga, FreeMorphism, Generator, TableBasisElement,
                       TableCdga, compose, identity_morphism, is_quasi_iso,
                       is_surjective_at, keyed, lift_against_weak_equivalence,
                       mapping_path, p5_lift, path_of, verify_homotopy)

# the quasi-isomorphism from the minimal model of S2 to its cohomology
M = FreeCdga([Generator("e2", 2), Generator("e3", 3)], N=7, name="M(S2)")
M.set_differential({"e3": M.parse("e2^2")})
A = TableCdga([TableBasisElement("one", 0), TableBasisElement("x2", 2)],
              N=6, unit="one", name="H(S2)")
rho = FreeMorphism(M, A, {"e2": A.basis_element("x2"), "e3": A.zero()},
                   name="rho")

mp = mapping_path(rho, budget=4)
print("p surjective:", all(is_surjective_at(mp.p, n) for n in range(5)))
print("p quasi-iso:", is_quasi_iso(mp.p, 4))
print("q quasi-iso (rho is one):", is_quasi_iso(mp.q, 4))
h = mp.contraction()
print("contraction iota p ~ 1 verifies:", verify_homotopy(h, h.f, h.g, upto=4).ok)

# the explicit section behind the double-path lifting axiom
PB = path_of(A, 4)
kB = keyed(PB)
bt = kB.include(A.basis_element("x2")) * (kB.unit() - kB.t())
a0 = M.generator("e2")
at = p5_lift(rho, a0, M.zero(), bt)
print("section through rho:", at)

# lifting against a weak equivalence, with the homotopy w g ~ f attached
g, hom = lift_against_weak_equivalence(M, rho, rho, path_of(rho.target, 4))
print("lift of rho through itself:",
      {x.name: str(g(M.generator(x.name))) for x in M.gens})
print("homotopy w g ~ f verifies:",
      verify_homotopy(hom, compose(rho, g), rho, upto=5).ok)
