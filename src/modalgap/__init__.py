"""Desk-scale verification lab for two-stage multimodal ERM: exact hard
instances, Monte Carlo complexity estimates, and the separation experiments
built on them."""

from .core import (ABSOLUTE, CLIPPED_ABS, Block, DegenerateDataError,
                   DomainError, InvalidInputError, Loss, ModalgapError,
                   MultiSample, SeedSpec, SingularityError,
                   UnsupportedClassError, draw_labeled, draw_unlabeled,
                   loss_eval, sample_from_csv, sample_hash, sample_to_csv)
from .instances import (BooleanInstance, SeparableInstance, SineInstance,
                        SubspaceInstance, ThreeParamInstance,
                        instance_from_json, instance_to_json, make_boolean,
                        make_separable, make_separable_from_fixed_points,
                        make_sine, make_sine_shattered, make_sine_subset,
                        make_subspace, make_three_param)
from .hypotheses import (BooleanLookupClass, BooleanMapClass,
                         ComposedSineClass, PolynomialClass, ScalingClass,
                         SignCompleteClass, SineSingletonClass,
                         SmoothedHyperplaneClass, TableLookupClass,
                         fit_scaling_lad)
from .complexity import (ComplexityEstimate, RealizabilityReport,
                         approximate_realizability, gaussian_average,
                         gaussian_average_closed_form, rademacher_average,
                         rademacher_average_closed_form)
from .shatter import ShatterCertificate, construct, frac_exact, lattice_point
from .erm import (JointSolution, MultimodalSolution, UnimodalSolution,
                  fit_joint, fit_multimodal, fit_unimodal, predict_unimodal)
from .analysis import (BoundReport, GapReport, RiskReport, excess_risk,
                       heterogeneity_gap, realizability_necessity_experiment,
                       representation_comparison, risk_bound,
                       separability_check, unimodal_failure_experiment)

__version__ = "0.1.0"
