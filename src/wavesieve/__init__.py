"""Gaussian Markov random fields on graphs and wavelet sieve regression.

Simulation side: graphs and lattices, admissible dependence ranges from the
adjacency spectrum, conclique-blocked Gibbs sampling with an exact joint
sampler as oracle.  Estimation side: tensor-product scaling-function sieves,
truncated minimum-norm least squares, level selection and Monte Carlo error.
A configuration-driven experiment runner ties the two together.
"""

from .graphs import *
from .gmrf import *
from .wavelets import *
from .regression import *
from .theory import *
from .experiment import *
from .rng import *

__version__ = "0.1.0"
