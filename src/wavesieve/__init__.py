"""Gaussian Markov random fields on graphs and wavelet sieve regression.

Simulation side: graphs and lattices, admissible dependence ranges from the
adjacency spectrum, conclique-blocked Gibbs sampling with an exact joint
sampler as oracle.  Estimation side: tensor-product scaling-function sieves,
truncated minimum-norm least squares, level selection and Monte Carlo error.
A configuration-driven experiment runner ties the two together.
"""

from .graphs import (Graph, ConcliquePartition, PowerIterationError,
                     load_graph, save_graph, torus_lattice, torus_with_chords,
                     knn_geometric_graph, eigen_bounds, eta_range, concliques,
                     connected_split)
from .gmrf import (GmrfSpec, ChainConfig, tau_from_eta, gibbs_chain, gibbs_chains,
                   direct_sample, joint_covariance, to_uniform, field_to_csv)
from .wavelets import (ScalingFilter, PhiTable, WaveletSieve, haar_filter,
                       d4_filter, filter_by_name, cascade, phi_eval,
                       mother_tensor_coeffs, sieve_for_box, covering_sieve,
                       partition_of_unity_residual, refinement_residual,
                       phi_table_to_csv)
from .regression import (Dataset, RegressionFit, SvdReport, design_matrix,
                         svd_lstsq, fit, predict, predict_batch,
                         auto_rho, select_level, l2_error_mc, fit_to_json)
from .theory import (BlockingPartition, block_size_q, blocking_partition,
                     covering_bound, rate_curve, write_xy_csv)
from .experiment import (ExperimentConfig, ResultRow, ResultTable,
                         m_bivariate, m_univariate, run_experiment,
                         emit_table, load_table, format_table,
                         config_from_dict, config_to_dict)
from .rng import stream, child_seed, polar_normals, normal_cdf

__version__ = "0.1.0"
