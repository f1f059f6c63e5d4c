"""Certify and solve QCQPs whose SDP relaxations are exact.

Core flow: build a problem (model), facially reduce it (reduction), check
the exactness conditions (certify), solve the relaxation (sdp), extract and
lift a rank-one solution (pipeline), and cross-check against brute force
(oracle).  gallery holds executable fixtures for the worked examples.
"""

from .symmat import (EigDecomp, SymMat, eig_sym, eigvals_sym, gram, inner,
                     is_psd, lambda_min)
from .model import (BallGrid, ConstraintSet, DiscretizationConfig, GeoCop,
                    GeneralizedHyperbola, HyperbolaSeq, ParabolaMember,
                    ParabolaSet, build_family, constraint_set, discretize,
                    eval_quadratic, integer_grid, normalize)
from .sdp import (SdpProblem, SdpSolution, relaxation_problem, solve,
                  solve_ab_certificate, solve_slater)
# certify() stays at exactsdp.certify.certify so that exactsdp.certify is the
# submodule
from .certify import (CertReport, PairVerdict, check_Bprime_Cprime,
                      check_condition_B, check_pair_B, check_structural,
                      classify)
from .reduction import ReductionResult, facial_reduce, find_max_rank_point, remove_redundant
from .oracle import OracleResult, solve_region_2d, solve_sphere
from .pipeline import (PipelineConfig, PipelineVerdict, RankOneResult,
                       extract_rank_one, run_pipeline)
from . import gallery, plotting, docio

__version__ = "0.1.0"
