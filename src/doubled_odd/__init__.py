"""Exact-arithmetic toolkit for doubled Odd graphs.

Builds the doubled Odd graph on 2m+1 points, the centralizer algebra of the
stabilizer of a base vertex, and the Terwilliger algebra with respect to that
base vertex, entirely over the rationals.  Every headline structural fact
(orbit counts, closed-form index sets, dimension formulas, subalgebra
decompositions, the antipodal 2-cover of the Odd graph) is rechecked
mechanically at small m; the `doubled-odd` command line front end packages
those checks into JSON reports.
"""

__version__ = "0.1.0"
