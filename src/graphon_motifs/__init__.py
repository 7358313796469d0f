"""Motif statistics for sparse step-graphon random graphs.

Library layout:

- ``motif``       exact motif combinatorics (isomorphism, density exponents,
                  embedding counts)
- ``graphon``     step graphons and their exact density analytics; the
                  critical share glues two pinned marginals of the motif on
                  each shared vertex set, with no union graph built
- ``seeding``     replicate seeds and child stream generators, derived in
                  cached blocks that match numpy's SeedSequence word for
                  word; the last seed handed out seeds PCG64 from its words,
                  and its block's child-stream uniforms come from lockstep
                  lanes
- ``sampler``     seeded generation of sparse graphon random graphs
- ``lanes``       the small graphs of a whole seed block, drawn in lockstep
                  for ``sampler.sample``
- ``counting``    subgraph counts and the edge/label variance decomposition
- ``stats``       standardization, KS goodness of fit, variance shares
- ``experiments`` Monte Carlo campaigns over the above: a config is checked
                  once when built, and ``run_experiment`` runs every kind
                  through one replicate loop and a per-kind aggregation
- ``cli``         command-line front end
"""

from .motif import (
    Motif,
    DensityProfile,
    named_motif,
    canonical_relabel,
    automorphism_count,
    copies_in_complete,
    density_exponents,
    count_embeddings,
)
from .graphon import (
    StepGraphon,
    RegularityReport,
    named_graphon,
    hom_density,
    multipoint_density,
    degree_function,
    regularity_report,
    is_motif_regular,
    projection_variance,
    critical_edge_variance_share,
)
from .sampler import (
    SampledGraph,
    SparsitySchedule,
    sample,
    resample_edges,
    schedule_rho,
    classify_regime,
    critical_schedule,
)
from .counting import (
    Decomposition,
    OrdersReport,
    count,
    expected_count,
    conditional_expected_count,
    decompose,
    exact_variance,
    conditional_variance,
    mean_variance_orders,
)
from .stats import (
    NormalityReport,
    standardize,
    normal_cdf,
    ks_test,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)

__version__ = "0.1.0"
