"""MU-MIMO uplink user-selection simulator.

Core pieces: instrumented complex-vector numerics, an i.i.d. Rayleigh
channel generator, zero-forcing receiver metrics, the space-splitting
selector plus classic baselines, closed-form cost models, and a seeded
Monte Carlo harness with a CLI front end.
"""

from .channel import (
    LinkBudget,
    generate_iid_rayleigh,
    noise_power,
    noise_power_dbm,
)
from .complexity import CostQuery, model_cost, relative_cost
from .harness import (
    AggregateRow,
    AlgoInstance,
    ExperimentConfig,
    TrialReport,
    emit,
    oracle_check,
    run_monte_carlo,
    run_trial,
)
from .metrics import SingularSetError, sum_spectral_efficiency, zf_post_snr
from .numerics import (
    BasisConstructionError,
    OpLedger,
    gram_schmidt_extend,
    subset_count,
)
from .seeding import derive_seed, stream
from .selectors import (
    Algorithm,
    SelectionConfig,
    SelectionResult,
    exhaustive_oracle,
    gzf,
    mcore_plus,
    random_select,
    run_selection,
    ss_us,
    sus,
)

__version__ = "0.1.0"
