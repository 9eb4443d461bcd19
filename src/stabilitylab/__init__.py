"""stabilitylab: exact analysis of independence-number stability at desk scale.

The toolkit computes independence numbers, decides (k,l)-stability and
tightness, reduces graphs to alpha-critical kernels, builds the spanning
certificates the classification results promise, and machine-verifies those
results by exhaustive search over all non-isomorphic graphs of small order.
"""

__version__ = "0.1.0"

from .errors import InvariantViolation
from .graphs import (
    Graph,
    add_isolated,
    bipartite_with_pm,
    clique,
    components,
    cone,
    cycle,
    degrees,
    delete_edge,
    delete_vertices,
    disjoint_union,
    even_subdivision_k4,
    from_edges,
    is_connected,
    min_degree,
    path,
)
from .graph6 import parse_graph6, write_graph6
from .canonical import CanonicalForm, canonical_form, is_isomorphic
from .catalog import named_graph
from .independence import (
    AlphaResult,
    alpha,
    alpha_after_single_removals,
    independent_sets_of_size,
)
from .stability import (
    StabilityReport,
    is_stable,
    is_tight_stable,
    max_alpha_drop,
    min_degree_necessary,
    stability_bound,
)
from .critical import (
    CriticalKernel,
    DefectClass,
    alpha_preserving_edge,
    classify_defect,
    critical_reduce,
    defect,
    is_alpha_critical,
    is_even_subdivision_k4,
    is_odd_cycle,
)
from .structure import (
    Decomposition,
    HallCertificate,
    five_graph_decomposition,
    hall_matching,
    odd_cycle_matching_decomposition,
    perfect_matching_tight10,
    spanning_certificate,
    spanning_embedding,
    two_cycles_or_subdivision_decomposition,
    validate_decomposition,
)
from .enumeration import (
    AtlasRecord,
    FilterSpec,
    VerificationReport,
    atlas_read,
    atlas_record,
    atlas_write,
    enumerate_canonical,
    filtered_records,
    verify_theorem,
)
