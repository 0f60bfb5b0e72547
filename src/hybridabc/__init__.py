"""Simulation-based inference for stochastic hybrid growth models.

The package pairs an adaptive ABC sequential Monte Carlo engine with an
auxiliary linear-Gaussian summary of trajectory batches, and ships a
two-state growth-inhibition culture model as its reference application.
"""

from ._version import __version__

__all__ = ["__version__"]
