"""Sequential weak-plus-projective measurement correlator simulator.

Quantum side: an entangled qubit pair is weakly measured on both arms,
then projectively read out, and the four signals of every shot are folded
into one CHSH-form correlator whose ensemble mean is estimated by Monte
Carlo, exactly from the meters' outcome moments, and by a closed form.  Classical
side: a local hidden-variable engine samples calibrated-noisy-detector
strategies and establishes the bound |<C>| <= 2 that the quantum weak
regime violates.
"""

__version__ = "0.2.0"

from .lhv import (
    LHVStrategy,
    RandomStrategySpec,
    lhv_mean,
    lhv_records,
    random_strategy,
    sign_pattern_extrema,
)
from .measurement import (
    AncillaMeterSpec,
    GaussianMeterSpec,
    ProjectiveMeterSpec,
    sample_records,
)
from .protocol import (
    DEFAULT_ANGLES,
    Estimate,
    ExperimentConfig,
    NumericalError,
    SweepPoint,
    analytic_mean,
    config_analytic_mean,
    correlator,
    exact_mean,
    monte_carlo,
    sweep,
    violation_threshold,
)
