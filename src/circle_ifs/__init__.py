"""Simulation and certification toolkit for IFSs of circle homeomorphisms.

Each exported name is reached by the CLI or by another module of the
package, except three library functions that no command runs:
`nested_limit`, `random_orbit_density` and `branch_apply`.
"""

from .certifier import (
    BasinData,
    Certificate,
    CertificatePair,
    certify_robust_minimality,
    check_certificate,
    find_universal_word,
    locate_basin,
    nested_limit,
    perturb_map,
    reverify_certificate,
    search_cover_words,
    verify_global_cover,
)
from .circle_maps import (
    Arc,
    CirclePoint,
    Composition,
    Inverse,
    LiftMap,
    Power,
    Rotation,
    SinePerturbed,
    circle_distance,
    find_fixed_points,
    map_from_json,
)
from .ifs_core import (
    IFS,
    branch_apply,
    minimality_estimate,
    random_orbit_density,
)
from .periodic_points import (
    PeriodicPointRecord,
    density_sweep,
    find_contracted_fixed_arc,
    periodic_in_interval,
)
from .symbolic import (
    BernoulliModel,
    MarkovMinorizedModel,
    Word,
    model_from_json,
)
from .synchronization import (
    RepellerEstimate,
    SyncReport,
    antonov_classify,
    detect_repellers,
    hitting_tail_check,
    sync_fraction,
)

__all__ = [
    "Arc",
    "BasinData",
    "BernoulliModel",
    "Certificate",
    "CertificatePair",
    "CirclePoint",
    "Composition",
    "IFS",
    "Inverse",
    "LiftMap",
    "MarkovMinorizedModel",
    "PeriodicPointRecord",
    "Power",
    "RepellerEstimate",
    "Rotation",
    "SinePerturbed",
    "SyncReport",
    "Word",
    "antonov_classify",
    "branch_apply",
    "certify_robust_minimality",
    "check_certificate",
    "circle_distance",
    "density_sweep",
    "detect_repellers",
    "find_contracted_fixed_arc",
    "find_fixed_points",
    "find_universal_word",
    "hitting_tail_check",
    "locate_basin",
    "map_from_json",
    "minimality_estimate",
    "model_from_json",
    "nested_limit",
    "periodic_in_interval",
    "perturb_map",
    "random_orbit_density",
    "reverify_certificate",
    "search_cover_words",
    "sync_fraction",
    "verify_global_cover",
]
