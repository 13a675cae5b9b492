"""uctk: a symbolic kernel for trees of uniform cofinalities.

Finitary combinatorics of level-1, level <=2 and level-3 trees, their
ordinal representations under the Brouwer-Kleene order, descriptions and
factoring maps, and the effective analysis (signature, uniform cofinality,
approximation sequence) of ordinals below u_omega in indiscernible normal
form, together with executable checkers for the supporting lemmas.
"""
