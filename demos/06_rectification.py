"""
Rectifying a homotopy-commutative square
========================================

A ho-morphism of zig-zag diagrams has strict vertex maps and one chosen
homotopy per arrow.  Its mapping path carries comparison maps
psi(a, b(t)) = (phi(a), F(a)), the endpoint evaluation alternates with the
vertex degree, and the two legs p, q of the resulting span are strict.
Evaluating the zig-zag q p^{-1} back recovers the original ho-morphism.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hodgepath import (Diagram, FreeCdga, FreeMorphism, Generator, HoMorphism,
                       IndexCategory, evaluate_zigzag, ho_morphisms_equal,
                       keyed, rectify, span_zigzag, validate_diagram_morphism,
                       validate_ho_homotopy, validate_ho_morphism)

I = IndexCategory({"0": 0, "1": 1}, [("u", "0", "1")])
A0 = FreeCdga([Generator("a1", 1)], N=5, name="A0")
A1 = FreeCdga([Generator("a1", 1)], N=5, name="A1")
B0 = FreeCdga([Generator("b1", 1)], N=5, name="B0")
B1 = FreeCdga([Generator("b1", 1)], N=5, name="B1")
DA = Diagram(I, {"0": A0, "1": A1},
             arrows={"u": FreeMorphism(A0, A1, {"a1": A1.generator("a1")})},
             budget=5, name="A")
DB = Diagram(I, {"0": B0, "1": B1},
             arrows={"u": FreeMorphism(B0, B1, {"b1": B1.generator("b1")})},
             budget=5, name="B")

k = keyed(DB.vertex_path("1"))
f = HoMorphism(DA, DB,
               {"0": FreeMorphism(A0, B0, {"a1": B0.generator("b1")}),
                "1": FreeMorphism(A1, B1, {"a1": B1.generator("b1")})},
               {"u": FreeMorphism(A0, k, {"a1": k.include(B1.generator("b1"))
                                          + k.t() * k.dt()}, name="F")},
               name="f")
print("ho-morphism validates:", validate_ho_morphism(f).ok)

span = rectify(f)
print("p strict:", validate_diagram_morphism(span.p).ok)
print("q strict:", validate_diagram_morphism(span.q).ok)

mp0 = span.mps["0"]
x = mp0.space.basis(1)[0]
print("psi(a, b(t)) =", span.diagram.phi["u"](x))

con = span.contraction()
print("contraction homotopy iota p ~ 1 validates:",
      validate_ho_homotopy(con, upto=3).ok)

back = evaluate_zigzag(DA, span_zigzag(span))
print("zig-zag round trip recovers f exactly:", ho_morphisms_equal(back, f))
