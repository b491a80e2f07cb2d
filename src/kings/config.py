"""Central numerical tolerances.

CONSTRUCTION_TOL bounds defects in objects the library builds itself (norms,
orthogonality); COMPARISON_TOL is the looser bound used when checking derived
quantities against expected values.
"""

CONSTRUCTION_TOL = 1e-12
COMPARISON_TOL = 1e-10
SEARCH_TOL = 1e-9  # a maximizer's distance below F_max; the overlap tolerance of the searches
