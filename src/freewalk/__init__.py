"""freewalk: stationary measures for random walks on free-group boundaries.

Exact-rational computation of conformal (Patterson-Sullivan) measures on the
boundary of a weighted free group, the spike family of Radon-Nikodym
derivatives, the greedy positive-basis decomposition producing a group
measure mu with mu * nu = nu', and audits of stationarity, moments, entropy
and the shadow/decay inequalities on cylinder partitions.
"""

from .words import WeightedFreeGroup, InputError, invert, multiply
from .geometry import (Cylinder, VisualParams, LogScale, default_params,
                       gromov_product, busemann, locally_constant_cells,
                       visual_quasimetric, shadow, sup_product,
                       translate_cylinder, merge_cylinders,
                       IdenticalBoundaryPointsError, OverlappingCylindersError,
                       AmbiguousCylinderError)
from .partitions import (LocallyConstantFunction, PartitionError,
                         ValueNotConstantError, refine_leaves, trie_closure,
                         validate_partition)
from .measures import (BoundaryMeasure, GroupMeasure, uniform_ps_measure,
                       critical_exponent, conformal_exponent, poincare_series,
                       radon_nikodym, pushforward, convolve, density, integrate,
                       DivergentNormalizationError, ConformalityError,
                       RefinementRuleError)
from .spikes import (Spike, SpikeReport, build_spike, make_spike, with_margin,
                     verify_spike, verify_q_spike, decay_check, shadow_lemma_audit,
                     lipschitz_scale, local_doubling_sup, ball_cells,
                     DegenerateSpikeError, DecayReport, ShadowAuditReport)
from .decomposition import (GreedyParams, DecompositionResult, AuditConstants,
                            measure_constants, basis_decompose, moment_decompose,
                            sequence_decay_bound, sequence_decay_iterate,
                            GreedyParameterError, InternalInvariantError)
from .stationarity import (StationarityReport, verify_stationarity,
                           sphere_uniform, mix, functionals, symmetrize,
                           UnsupportedClosedFormError)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
