"""Word measures on unitary groups: invariants, exact moments, surfaces."""

__version__ = "0.1.0"

from .errors import ParseError, UndecidedError  # noqa: F401
from .invariants import (  # noqa: F401
    InvariantReport,
    analyze,
    comm_crit,
    commutator_length,
    critical_subgroups,
    is_algebraic_extension,
    primitivity_rank,
)
from .montecarlo import Estimate, UnitarySample, estimate_moment, sample_haar  # noqa: F401
from .ratfunc import LaurentSeries, Polynomial, RationalFunction, laurent  # noqa: F401
from .stallings import (  # noqa: F401
    LabeledGraph,
    core_graph,
    fold,
    fringe,
)
from .surfaces import (  # noqa: F401
    MatchingSpec,
    SurfaceComplex,
    build_surface,
    enumerate_matchings,
)
from .weingarten import (  # noqa: F401
    TraceMonomial,
    expansion_prediction,
    moment,
    stable_inner_product,
    verify_word,
    wg,
    word_moment,
)
from .whitehead import (  # noqa: F401
    in_proper_free_factor,
    is_primitive,
    minimize,
    orbit_equivalent,
)
from .words import Word, commutator, cyclic_key, is_balanced, parse  # noqa: F401
