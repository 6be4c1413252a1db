"""Three-page presentations of links: model, invariants, constructions, census."""

from .braids import (BraidWord, FactorizationReport, cycle_count, exponent_sum,
                     format_word, parse_word, permutation, torus_braid,
                     torus_braid_lower_twist_form, torus_braid_small,
                     torus_braid_upper_twist_form, verify_factorization)
from .diagram import (PlanarDiagram, braid_closure_diagram, pd_export, project,
                      trace)
from .invariants import (CrossingLimitError, InvariantProfile, bracket_skein,
                         equal_up_to_mirror, jones_set, profile)
from .laurent import LOOP, ONE, LaurentPoly, in_t_variable
from .presentation import (InvalidPresentationError, ParseError, PlacedArc,
                           ThreePagePresentation, ValidationReport, components,
                           detect_split_pair, is_canonical, parse,
                           symmetry_orbit, validate)
from .render import RenderSpec, render, render_ascii, render_svg
from .search import (CensusEntry, IndexSearchResult, RefutationReport,
                     SearchConstraints, census, census_text, crossing_floor,
                     enumerate_presentations, refute_t33_at_9,
                     three_page_index)
from .torus import (HOPF, UNKNOT_TRIANGLE, BoundsReport, bounds,
                    closure_profile, tnn, tpq, tpq_tight)

__version__ = "0.1.0"
