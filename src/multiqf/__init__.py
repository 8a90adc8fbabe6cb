"""Multi-party coherent-pulse fingerprinting toolkit."""

from .bounds import (
    STRATEGY_FIRST,
    STRATEGY_IDEAL,
    STRATEGY_LAST,
    STRATEGY_NAIVE,
    STRATEGY_TWO_USER,
    BoundResult,
    ECCParams,
    ProtocolParams,
    algorithm_two_user,
    binomial_inv_cdf,
    bound_first_detectors,
    bound_last_detector,
    ideal_alpha2,
    ideal_bound,
    max_users_energy_advantage,
    naive_asymmetric_probs,
    naive_protocol,
    qubit_cost,
)
from .circuits import (
    CircuitElement,
    CircuitLayout,
    clements_decompose,
    compose_layout,
    dft_multiport,
    extendable_layout,
    extendable_matrix,
    optimal_tree_layout,
    reck_decompose,
)
from .classical import (
    best_k_user,
    best_two_user,
    claim_c1_check,
    classical_limit,
    photonic_limit_photons,
)
from .gains import (
    EQUAL,
    BatchGains,
    GainSet,
    PhasePattern,
    batch_gain_set,
    find_last_label,
    gain_set,
    ideal_gain_set,
    output_photon_numbers,
    visibilities,
    worst_case_pattern_scan,
)
from .mcsim import (
    ALL_EQUAL,
    WORST_DIFFERENT,
    SimConfig,
    SimOutcome,
    VerifyReport,
    default_trials,
    simulate,
    verify_bound,
    wilson_upper,
)
from .noise import NoiseModel, realize_batch, realize_circuit

__version__ = "0.1.0"
