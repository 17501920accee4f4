"""Continuously loaded Ioffe-Pritchard trap toolkit.

Rate-equation modelling of optical loading of a magnetic trap from a MOT,
trap and cloud geometry, and least-squares estimation of the inelastic
loss coefficients.

The modules are the API: import a name from the module that defines it,
as in ``from cliptrap.estimation import fit_kappa``.  ``import cliptrap``
loads no module of the package; ``cliptrap.cli``, the command line, loads
them all.
"""

__version__ = "0.1.0"
