"""
Mixed Hodge diagrams and Hodge structures on homotopy groups
============================================================

A toy modelled on the cohomology of the projective line: a rational vertex
with a weight filtration, a bifiltered vertex over Q(i), and comparison maps
between them.  The axioms are verified exactly; conjugation on the complex
side is transported along the comparison string rather than assumed.  The
supplied minimal model then carries the Hodge structures of the homotopy
groups.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import toy_mhd, toy_model  # the fixtures used by the test suite

from hodgepath import (DiagramMorphism, FreeMorphism, check_mhd,
                       degeneration_check, mixed_hodge_dga_diagram, pi_star,
                       promote_strict, transport_rational_structure)

toy = toy_mhd()
report = check_mhd(toy)
print("axioms pass:", report.ok)
print("pure pieces:", report.axioms["MH2"]["pure_pieces"])
print("degeneration:", degeneration_check(toy)["ok"])

# the F-shifted mutant fails purity with an explicit witness
mutant = check_mhd(toy_mhd(hodge_x2=2))
print("mutant fails MH2:", not mutant.axioms["MH2"]["ok"],
      "-", mutant.axioms["MH2"]["witnesses"][0]["failures"][0]["witness"])

# transported conjugation fixes the rational class (vectors are coefficient rows)
tr = transport_rational_structure(toy, 2, 0)
from fractions import Fraction
image = tr.conjugation()({0: Fraction(1)})
print("conj of the degree-2 class:", [str(image.get(j, 0)) for j in range(tr.dim_dst)])

# Hodge structures on the homotopy groups of the supplied minimal model
M = toy_model()
MD = mixed_hodge_dga_diagram(M, toy, budget=4)
maps = {v: FreeMorphism(MD.algebras[v], toy.diagram.algebras[v],
                        {"a2": toy.diagram.algebras[v].basis_element("x2"),
                         "a3": toy.diagram.algebras[v].zero()})
        for v in MD.index.vertices}
f = promote_strict(DiagramMorphism(MD, toy.diagram, maps, name="rho"))
rep = pi_star(toy, M, f)
print("pi_star verdict:", rep.ok)
for n, entry in sorted(rep.degrees.items()):
    if entry["dim"]:
        print(f"  pi^{n}: weights {entry['weights']}, types {entry['types']}")
