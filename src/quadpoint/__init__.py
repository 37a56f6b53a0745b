"""quadpoint: exact-arithmetic engine for first-order line congruences.

Submodules:
    exact       rational linear algebra, Pfaffians, polynomials, binary-form gcd
    schubert    Schubert calculus for lines in P^n: Pieri products, multidegrees
    formulas    multiple-point formulas and focal-locus degree closed forms
    congruence  explicit linear and determinantal congruence constructions
    catalog     variety records, built-in dataset, classification filter
    cli         command-line front end
"""

__all__ = ["exact", "schubert", "formulas", "congruence", "catalog", "cli"]

__version__ = "0.1.0"
