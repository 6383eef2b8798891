"""Jamming energy allocation against training-based multiple access channels.

The jammer splits a fixed energy budget between each user's pilot window and
the shared data phase to minimize closed-form bounds on the legitimate
ergodic sum-rate.  :mod:`macjam.model` holds the statistics, ``rates`` the
Monte Carlo evaluator and bounds, ``optimizer`` the solvers, ``scenario`` the
configuration layer, and ``cli`` the command-line front end.
"""

from .model import *
from .optimizer import *
from .rates import *
from .scenario import *

__version__ = "0.1.0"
