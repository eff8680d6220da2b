"""Generalized-transverse mode solver and field quantization toolkit.

The package imports none of its submodules, so that the command-line entry
point can configure threading before any numerical library loads.
"""

__version__ = "0.1.0"
