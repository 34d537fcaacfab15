"""Quantum-accelerated agnostic learning over finite hypothesis classes."""

from .bench import BenchConfig, BenchRow, fit_loglog_slope, load_bench_config, run_bench
from .checks import CheckResult, verify
from .classical import ClassicalLearnResult, draw_iid_samples, erm_learn, hoeffding_sample_size
from .engine import (
    CapacityError,
    QueryLedger,
    ae_error_bound,
    closed_form_ae_distribution,
    loss_encoded_state,
    marked_probability,
    prepare_data_state,
    simulate_ae_distribution,
)
from .estimator import (
    EstimateResult,
    estimate_mean,
    median,
    phase_bits_for_accuracy,
    repetitions_for_confidence,
)
from .learner import LearnResult, allocate_budget, argmin_risk_transfer, learn
from .problem import (
    ExactStatistics,
    Hypothesis,
    LossSpec,
    ProblemInstance,
    SupportPoint,
    ValidationError,
    best_hypothesis,
    demo_instance,
    exact_risk,
    exact_statistics,
    load_instance,
    loss_value,
    make_instance,
    random_instance,
    regression_and_variance,
    save_instance,
    squared_risk_decomposition,
)

__version__ = "0.1.0"
