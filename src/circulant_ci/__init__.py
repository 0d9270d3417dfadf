"""Exact isomorphism and CI-property engine for circulant (di)graphs over Z_n.

The records, the tuple subclasses in __all__, are immutable named tuples:
each iterates over its fields and compares equal to the plain tuple of them.
"""

from .cayley import (
    ConnectionSet,
    OracleCutoffError,
    build_cayley,
    brute_force_isomorphic,
    brute_force_isomorphism,
    orbit_members,
)
from .engine import (
    CiVerdict,
    ClassificationReport,
    DisagreementError,
    IsoVerdict,
    WitnessFamily,
    decide_ci,
    is_ci,
    is_ci_reduced,
    is_m_group,
    isomorphism_class,
    m_property,
    muzychuk_isomorphic,
    orbit_representatives,
    predicate_ci_group,
    predicate_dci_group,
    predicate_mci,
    predicate_mdci,
    verify_theorems,
    witnesses,
)
from .keys import (
    Key,
    key_of_set,
    key_partition,
    zero_key,
)
from .multipliers import (
    GenuineMultiplier,
    SolvingSet,
    as_permutation,
    solving_set,
)
from .zn import (
    DomainError,
    Factorization,
    InternalConsistencyError,
    factorize,
    units,
)

__version__ = "0.1.0"

__all__ = [
    "CiVerdict",
    "ClassificationReport",
    "ConnectionSet",
    "DisagreementError",
    "DomainError",
    "Factorization",
    "GenuineMultiplier",
    "InternalConsistencyError",
    "IsoVerdict",
    "Key",
    "OracleCutoffError",
    "SolvingSet",
    "WitnessFamily",
    "as_permutation",
    "brute_force_isomorphic",
    "brute_force_isomorphism",
    "build_cayley",
    "decide_ci",
    "factorize",
    "is_ci",
    "is_ci_reduced",
    "is_m_group",
    "isomorphism_class",
    "key_of_set",
    "key_partition",
    "m_property",
    "muzychuk_isomorphic",
    "orbit_members",
    "orbit_representatives",
    "predicate_ci_group",
    "predicate_dci_group",
    "predicate_mci",
    "predicate_mdci",
    "solving_set",
    "units",
    "verify_theorems",
    "witnesses",
    "zero_key",
]
